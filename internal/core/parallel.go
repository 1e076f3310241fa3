package core

import (
	"fmt"
	"runtime"

	"repro/internal/cluster"
	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/volume"
)

// StepTimes reports the simulated makespan of each phase of one
// refinement pass — the rows of the paper's Tables 1 and 2.
type StepTimes struct {
	// DFT3D is step a: the parallel 3-D DFT of the density map.
	DFT3D float64
	// ReadImages is steps b–c: the master reading views and initial
	// orientations and distributing them.
	ReadImages float64
	// FFTAnalysis is steps d–e: per-view 2-D DFT and CTF correction.
	FFTAnalysis float64
	// Refinement is steps f–l: the windowed matching and centre
	// refinement.
	Refinement float64
	// Total is the end-to-end simulated makespan.
	Total float64
}

// ParallelOptions configures a cluster refinement pass.
type ParallelOptions struct {
	// BytesPerPixel models view file storage (the paper uses 2).
	BytesPerPixel int
	// ReadBytesPerSec models the master's sequential file-read rate;
	// ≤0 disables modeled I/O time.
	ReadBytesPerSec float64
	// DFT3DSecs carries the simulated cost of step a when the map
	// transform was produced separately (e.g. by parfft.Transform3D);
	// it is copied into StepTimes.DFT3D.
	DFT3DSecs float64
}

// DefaultParallelOptions returns the paper's I/O assumptions: 2-byte
// pixels read at a 1999-era sequential disk rate.
func DefaultParallelOptions() ParallelOptions {
	return ParallelOptions{BytesPerPixel: 2, ReadBytesPerSec: 20e6}
}

// RefineOnCluster executes one full refinement pass (steps b–o) on the
// simulated cluster: the master distributes views and initial
// orientations round-robin, every node transforms and refines its
// share charging the cost model, nodes synchronize after every
// schedule level (step m), and results are gathered on the master
// (step o). It returns the per-view results in input order along with
// the per-step simulated times.
//
// The refiner's schedule is used as-is; to time a single angular
// resolution (one column of Tables 1–2) construct the Refiner with a
// one-level schedule.
func (r *Refiner) RefineOnCluster(
	cl *cluster.Cluster,
	views []*volume.Image,
	ctfs []ctf.Params,
	inits []geom.Euler,
	opt ParallelOptions,
) ([]Result, StepTimes, error) {
	m := len(views)
	if len(inits) != m {
		return nil, StepTimes{}, fmt.Errorf("core: %d views but %d orientations", m, len(inits))
	}
	if len(ctfs) != 0 && len(ctfs) != m {
		return nil, StepTimes{}, fmt.Errorf("core: %d views but %d CTF param sets", m, len(ctfs))
	}
	for i, v := range views {
		if v.L != r.m.l {
			return nil, StepTimes{}, fmt.Errorf("core: view %d size %d does not match map size %d", i, v.L, r.m.l)
		}
	}
	p := cl.P
	l := r.m.l
	results := make([]Result, m)
	var refineErr error

	// Per-step makespans, collected via max-reduction inside the run.
	type marks struct{ read, fft, refine float64 }
	nodeMarks := make([]marks, p)

	// Timeline span names, shared read-only by all node goroutines.
	// Spans and instants cost one atomic load when no trace records.
	levelNames := make([]string, len(r.cfg.Schedule))
	for li := range levelNames {
		levelNames[li] = fmt.Sprintf("refine L%d", li)
	}

	cl.Run(func(n *cluster.Node) {
		rank := n.Rank
		mark := n.Clock()
		stage := func(name string) {
			now := n.Clock()
			obs.Span(rank, 0, name, "refine", mark, now)
			mark = now
		}
		// Step b–c: master reads the image and orientation files and
		// distributes view indices round-robin (view q goes to rank
		// q mod P, keeping E_q and O_q^init together).
		viewBytes := l * l * opt.BytesPerPixel
		if rank == 0 && opt.ReadBytesPerSec > 0 {
			n.Sleep(float64(m*viewBytes) / opt.ReadBytesPerSec)
		}
		var myIdx []int
		for q := rank; q < m; q += p {
			myIdx = append(myIdx, q)
		}
		// Model the scatter of everyone else's share from the master.
		parts := make([]interface{}, p)
		if rank == 0 {
			for i := 0; i < p; i++ {
				parts[i] = i // placeholder; real data is shared read-only
			}
		}
		n.Scatter("views", 0, parts, len(myIdx)*viewBytes)
		nodeMarks[rank].read = n.Clock()
		stage("b-c read+scatter")

		// Steps d–e: 2-D DFT + CTF correction of owned views, on one
		// per-node transform scratch (spectrum buffer + real-input
		// plan) so preparing a node's share allocates only band-sized
		// view state.
		myViews := make([]*View, len(myIdx))
		trans := fourier.NewViewTransformer(l)
		fbuf := volume.NewCImage(l)
		for i, q := range myIdx {
			params := ctf.Params{}
			if len(ctfs) > 0 {
				params = ctfs[q]
			}
			v, err := r.prepareViewReuse(views[q], params, trans, fbuf)
			if err != nil {
				refineErr = err
				return
			}
			myViews[i] = v
			n.Compute(viewFFTFlops(l))
			if r.cfg.CorrectCTF {
				n.Compute(20 * float64(l*l))
			}
			sp := obs.StartSpan(rank, 0, "fft", "refine", mark)
			sp.SetArg("view", int64(q))
			mark = n.Clock()
			sp.End(mark)
		}
		n.Barrier("post-fft")
		nodeMarks[rank].fft = n.Clock()
		stage("post-fft barrier")

		// Steps f–n: refine each view through every level, with a
		// barrier per level (step m). Within a level the node's views
		// are independent, so they run on a real worker pool sized to
		// this node's share of the machine; the simulated clock is
		// charged afterwards in view order, so the cost model (and
		// therefore every simulated timing) is identical to the serial
		// schedule regardless of GOMAXPROCS.
		states := make([]Result, len(myIdx))
		for i, q := range myIdx {
			states[i] = Result{Orient: inits[q]}
		}
		// The simulated clock charges the paper's full-disc band, not
		// the half band the matcher actually compares.
		band := r.m.fullDiscSize()
		nodeWorkers := runtime.GOMAXPROCS(0) / p
		if nodeWorkers < 1 {
			nodeWorkers = 1
		}
		nodeWorkers = poolWorkers(len(myIdx), nodeWorkers)
		scratches := make([]*matchScratch, nodeWorkers)
		for w := range scratches {
			scratches[w] = r.m.newScratch()
		}
		sts := make([]LevelStats, len(myIdx))
		for li, lv := range r.cfg.Schedule {
			lv := lv
			runIndexedLabeled("core.refine.level", len(myIdx), nodeWorkers, func(w, i int) {
				// Same (seed, level, entry-orientation) stream as the
				// serial path, so cluster refinement is bit-identical
				// to RefineView regardless of node count.
				rng := newSearchRNG(r.cfg.SearchSeed, li, states[i].Orient)
				sts[i] = r.refineLevel(myViews[i].vd, &states[i], lv, scratches[w], &rng, r.cfg.Search)
			})
			for i, q := range myIdx {
				st := sts[i]
				r.recordLevelStats(li, st)
				states[i].PerLevel = append(states[i].PerLevel, st)
				n.Compute(float64(st.Matchings) * flopsPerMatch(band))
				n.Compute(float64(st.CenterEvals) * 15 * float64(band))
				sp := obs.StartSpan(rank, 0, levelNames[li], "refine", mark)
				sp.SetArg("view", int64(q))
				sp.SetArg("matchings", int64(st.Matchings))
				mark = n.Clock()
				sp.End(mark)
				if st.Slides > 0 {
					obs.Instant(rank, 0, "slide", "refine", mark, [2]obs.Arg{
						{Key: "view", Value: int64(q)},
						{Key: "count", Value: int64(st.Slides)},
					})
				}
			}
			n.Barrier("level")
			stage("level barrier")
		}
		nodeMarks[rank].refine = n.Clock()

		// Step o: gather refined orientations on the master.
		n.Gather("results", 0, states, len(myIdx)*64)
		stage("gather")
		for i, q := range myIdx {
			results[q] = states[i]
		}
	})
	if refineErr != nil {
		return nil, StepTimes{}, refineErr
	}

	var times StepTimes
	times.DFT3D = opt.DFT3DSecs
	for _, mk := range nodeMarks {
		if mk.read > times.ReadImages {
			times.ReadImages = mk.read
		}
	}
	for _, mk := range nodeMarks {
		if d := mk.fft - times.ReadImages; d > times.FFTAnalysis {
			times.FFTAnalysis = d
		}
	}
	maxFFT := times.ReadImages + times.FFTAnalysis
	for _, mk := range nodeMarks {
		if d := mk.refine - maxFFT; d > times.Refinement {
			times.Refinement = d
		}
	}
	times.Total = times.DFT3D + times.ReadImages + times.FFTAnalysis + times.Refinement
	return results, times, nil
}
