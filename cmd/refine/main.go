// Command refine runs the paper's sliding-window multi-resolution
// orientation refinement on a simulated dataset: it perturbs the
// ground-truth orientations to produce the rough initial estimates the
// algorithm expects, refines them against the reference map, and
// writes the refined orientation file plus an error report.
//
// With -p N the whole pass runs on the simulated N-node cluster — the
// parallel slab DFT of the map (steps a.1–a.6) followed by the
// distributed refinement (steps b–o) — and reports the simulated step
// times. With -trace the simulated timeline is written as a Chrome
// trace_event file (open in chrome://tracing or ui.perfetto.dev);
// tracing implies -p 4 unless -p is given, since the timeline renders
// the simulated cluster clock.
//
// Usage:
//
//	refine -data data/sindbis -out refined.txt [-init-err 2] [-levels 4]
//	       [-p 0] [-trace refine.trace.json] [-metrics -]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/benchutil"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/obs"
	"repro/internal/parfft"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("refine: ")
	var (
		data    = flag.String("data", "", "dataset directory from the simulate tool (required)")
		out     = flag.String("out", "refined.txt", "refined orientation file")
		initErr = flag.Float64("init-err", 2, "per-axis error (deg) of the initial orientations")
		levels  = flag.Int("levels", 4, "schedule depth: 1=1°, 2=+0.1°, 3=+0.01°, 4=+0.002°")
		workers = flag.Int("workers", 0, "refinement goroutines (0 = GOMAXPROCS)")
		pad     = flag.Int("pad", 2, "Fourier oversampling of the reference map")
		seed    = flag.Int64("seed", 7, "seed for the initial-orientation perturbation")
		nodes   = flag.Int("p", 0, "simulated cluster nodes (0 = shared-memory path; -trace defaults to 4)")
	)
	var of benchutil.Flags
	of.Register(flag.CommandLine)
	flag.Parse()
	if *data == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *nodes == 0 && of.Trace != "" {
		*nodes = 4
	}
	stopObs, err := of.Start()
	if err != nil {
		log.Fatal(err)
	}
	ds, err := micrograph.Load(*data)
	if err != nil {
		log.Fatal(err)
	}
	if *levels < 1 || *levels > 4 {
		log.Fatalf("levels must be 1..4, got %d", *levels)
	}

	cfg := core.DefaultConfig(ds.L)
	cfg.Schedule = core.DefaultSchedule()[:*levels]
	if ds.HasCTF {
		cfg.CorrectCTF = true
		cfg.CTFMode = ctf.PhaseFlip
		cfg.CTFWeightCuts = true
	}
	inits := ds.PerturbedOrientations(*initErr, *seed)

	var results []core.Result
	if *nodes > 0 {
		results = refineOnCluster(ds, cfg, inits, *nodes, *pad)
	} else {
		dft := fourier.NewVolumeDFTPadded(ds.Truth, *pad)
		r, err := core.NewRefiner(dft, cfg)
		if err != nil {
			log.Fatal(err)
		}
		src := core.SliceSource(ds.Images(), ds.CTFs(), inits)
		results, err = r.RefineStream(context.Background(), len(inits), src, core.StreamOptions{FFTWorkers: *workers, RefineWorkers: *workers})
		if err != nil {
			log.Fatal(err)
		}
	}

	orients := make([]geom.Euler, len(results))
	centers := make([][2]float64, len(results))
	var angBefore, angAfter, cenAfter float64
	slides, matchings := 0, 0
	for i, res := range results {
		orients[i] = res.Orient
		centers[i] = res.Center
		angBefore += geom.AngularDistance(inits[i], ds.Views[i].TrueOrient)
		angAfter += geom.AngularDistance(res.Orient, ds.Views[i].TrueOrient)
		cenAfter += math.Hypot(res.Center[0]+ds.Views[i].TrueCenter[0],
			res.Center[1]+ds.Views[i].TrueCenter[1])
		slides += res.TotalSlides()
		matchings += res.TotalMatchings()
	}
	n := float64(len(results))
	if err := micrograph.WriteOrientationList(*out, orients, centers); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("refined %d views -> %s\n", len(results), *out)
	fmt.Printf("mean angular error: %.4f° -> %.4f°\n", angBefore/n, angAfter/n)
	fmt.Printf("mean centre error after refinement: %.4f px\n", cenAfter/n)
	fmt.Printf("matchings per view: %.0f   window slides total: %d\n", float64(matchings)/n, slides)
	if err := stopObs(); err != nil {
		log.Fatal(err)
	}
}

// refineOnCluster runs steps a–o on the simulated cluster: the slab
// DFT of the (padded) map, then the distributed refinement pass. The
// two phases are laid end-to-end on the trace timeline, and the
// parfft stage spans are reconciled against the cluster's own
// per-node totals before the trace is written.
func refineOnCluster(ds *micrograph.Dataset, cfg core.Config, inits []geom.Euler, p, pad int) []core.Result {
	cl := cluster.New(p, cluster.SP2)
	opt := core.DefaultParallelOptions()
	readSecs := 0.0
	if opt.ReadBytesPerSec > 0 {
		// The master reads the l³ map at the modeled sequential rate
		// (4-byte voxels).
		readSecs = float64(ds.L*ds.L*ds.L*4) / opt.ReadBytesPerSec
	}
	ft := parfft.Transform3DPadded(cl, ds.Truth, pad, readSecs)
	opt.DFT3DSecs = ft.Elapsed
	if tr := obs.ActiveTrace(); tr != nil {
		reconcileParfftSpans(tr, ft.Stats)
		// Start the refinement phase where the slab DFT ended.
		tr.SetTimeOffset(ft.Elapsed)
	}

	r, err := core.NewRefiner(ft.DFT, cfg)
	if err != nil {
		log.Fatal(err)
	}
	results, times, err := r.RefineOnCluster(cl, ds.Images(), ds.CTFs(), inits, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d-node step times (s): dft3d %.3f  read %.3f  fft %.3f  refine %.3f  total %.3f\n",
		p, times.DFT3D, times.ReadImages, times.FFTAnalysis, times.Refinement, times.Total)
	return results
}

// reconcileParfftSpans checks that the per-node parfft stage spans tile
// the simulated clock exactly: their durations sum to the node's
// reported Elapsed. The stage marks telescope, so the identity is
// exact, not approximate — any drift means the instrumentation lost a
// clock charge.
func reconcileParfftSpans(tr *obs.Trace, stats []cluster.Stats) {
	sums := make(map[int]float64)
	for _, e := range tr.Events() {
		if e.Cat == "parfft" && e.Phase == "X" {
			sums[e.Pid] += e.End - e.Start
		}
	}
	maxDelta := 0.0
	for _, st := range stats {
		d := math.Abs(sums[st.Rank] - st.Elapsed)
		if d > maxDelta {
			maxDelta = d
		}
	}
	fmt.Printf("trace: parfft stage spans vs cluster totals: max |Δ| = %.3g s over %d nodes\n",
		maxDelta, len(stats))
	if maxDelta > 1e-9 {
		log.Fatalf("trace reconciliation failed: parfft spans drift %.3g s from cluster totals", maxDelta)
	}
}
