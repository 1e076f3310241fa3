package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ctf"
	"repro/internal/cycle"
	"repro/internal/fourier"
	"repro/internal/fsc"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/reconstruct"
	"repro/internal/serve"
	"repro/internal/volume"
)

// The stage replay is the traced run of a cycle_* workload: the
// benchmark itself makes, in cycle.Run's order and on the served job's
// inputs, every call a served cycle job makes into the layers below
// it, each call under a span. Nothing inside the program is
// instrumented, so the replay may be read as the served job's budget
// only because it must end on the served job's map digest and FSC
// history — which also fails loudly the day cycle.Run drifts from it.

// stage opens spans under one root on track 0; the zero stage (an
// untraced run) just makes the calls.
type stage struct {
	tr   *tracer
	root int
}

func (s stage) do(name, layer string, c int, f func()) {
	if s.tr == nil {
		f()
		return
	}
	i := s.tr.begin(name, layer, c, 0, s.root)
	f()
	s.tr.end(i)
}

// Span names, shared by the replay and the metrics read back from it.
const (
	spanBuild      = "workload.build"
	spanRefDFT     = "fourier.ref_dft"
	spanNewRefiner = "core.new_refiner"
	spanLevel      = "core.level" // + level index
	spanFull       = "reconstruct.full"
	spanHalves     = "reconstruct.halves"
	spanDigest     = "reconstruct.digest"
	spanFSC        = "fsc.compute"
	spanMapWrite   = "volume.map_write"
	spanMapRead    = "volume.map_read"
	spanJournal    = "serve.journal_append"
)

// replayOut is what one stage replay produced and counted.
type replayOut struct {
	root    int
	digests []string // per cycle
	history []cycle.CycleFSC
	angErr  float64
	// cycle0 is the wall time from the replay's start to the end of
	// cycle 0.
	cycle0 time.Duration

	evals, centerEvals, slides, moves int // over all views, levels and cycles
	// coeffEvals is Σ evaluations × band coefficients each compared:
	// coarse levels match on a low-frequency prefix of the band.
	coeffEvals                     float64
	cacheHits, cacheMisses         int64
	mallocs, allocBytes            uint64 // around the refinement calls only
	journalBytes, levelRecordBytes int64
	levelRecords                   int
	mapBytes                       int64
	refineWorkers                  int

	// Kept for the kernel loops: the dataset, the last cycle's refiner
	// and reference transform, the refined results, the final map.
	ds      *micrograph.Dataset
	ctfs    []ctf.Params
	refiner *core.Refiner
	dft     *fourier.VolumeDFT
	results []core.Result
	final   *volume.Grid
}

// solutions splits results the way the reconstruction API wants them.
func solutions(results []core.Result) ([]geom.Euler, [][2]float64) {
	orients := make([]geom.Euler, len(results))
	centers := make([][2]float64, len(results))
	for i, r := range results {
		orients[i], centers[i] = r.Orient, r.Center
	}
	return orients, centers
}

// replayCycles runs spec's cycles stage by stage under spans, journaling
// and writing map artifacts into a scratch directory as the service
// does. spec must be normalized (as Submit echoes it).
func replayCycles(tr *tracer, spec serve.JobSpec, base string) (*replayOut, error) {
	dir, err := newRunDir(base)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	jr, err := serve.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	defer jr.Close()
	ws, err := datasetOf(spec)
	if err != nil {
		return nil, err
	}

	out := &replayOut{root: tr.begin("replay", "cycle", -1, 0, -1)}
	st := stage{tr, out.root}
	const id = "job-000001"
	var stageErr error
	journal := func(c int, write func() error) {
		st.do(spanJournal, "serve", c, func() {
			if err := write(); err != nil && stageErr == nil {
				stageErr = err
			}
		})
	}

	var ds *micrograph.Dataset
	st.do(spanBuild, "workload", -1, func() { ds = ws.Build() })
	var (
		inits  []geom.Euler
		images []*volume.Image
		ctfs   []ctf.Params
	)
	st.do("workload.inits", "workload", -1, func() {
		inits = ds.PerturbedOrientations(spec.InitError, spec.InitSeed)
		images = ds.Images()
		if ds.HasCTF {
			ctfs = make([]ctf.Params, len(ds.Views))
			for i, v := range ds.Views {
				ctfs[i] = v.CTF
			}
		}
	})
	n := len(images)
	journal(-1, func() error { return jr.Submit(id, spec) })

	recon := reconstruct.ParallelOptions{Options: reconstruct.Options{WienerCTF: ds.HasCTF}}
	ccfg := core.DefaultConfig(ds.L)
	ccfg.Schedule = core.DefaultSchedule()[:spec.Levels]
	ccfg.Search = core.SearchMode(spec.Search)
	ccfg.SearchSeed = spec.SearchSeed
	if ds.HasCTF {
		ccfg.CorrectCTF, ccfg.CTFMode, ccfg.CTFWeightCuts = true, ctf.PhaseFlip, true
	}
	var stream core.StreamOptions // the service's default shape
	_, out.refineWorkers, _ = core.StreamShape(stream)
	src := core.SliceSource(images, ctfs, inits)
	plateau := &fsc.Plateau{Eps: spec.PlateauEps} // window disabled: run to the cap

	results := make([]core.Result, n)
	for i := range results {
		results[i] = core.Result{Orient: inits[i]}
	}
	var ref *volume.Grid
	for c := 0; c < spec.MaxCycles && stageErr == nil; c++ {
		journal(c, func() error { return jr.CycleStart(id, c) })
		if c == 0 {
			st.do(spanFull, "reconstruct", c, func() {
				orients, centers := solutions(results)
				ref, err = reconstruct.FromViewsParallel(images, orients, centers, ctfs, recon)
			})
			if err != nil {
				return nil, fmt.Errorf("initial reference: %w", err)
			}
		}
		var masked *volume.Grid
		st.do("cycle.mask", "cycle", c, func() {
			masked = ref.Clone()
			masked.SphericalMask(0.45 * float64(ds.L))
		})
		st.do(spanRefDFT, "fourier", c, func() { out.dft = fourier.NewVolumeDFTPadded(masked, spec.Pad) })
		st.do(spanNewRefiner, "core", c, func() { out.refiner, err = core.NewRefiner(out.dft, ccfg) })
		if err != nil {
			return nil, err
		}
		for k := 0; k < spec.Levels; k++ {
			// The benchmark's own bookkeeping gets spans too, so it is
			// neither lost from the budget nor charged to the driver.
			var before, after runtime.MemStats
			st.do("bench.counters", "bench", c, func() { runtime.ReadMemStats(&before) })
			st.do(fmt.Sprintf("%s%d", spanLevel, k), "core", c, func() {
				results, err = out.refiner.RefineStreamLevels(context.Background(), n, src, results, k, k+1, stream)
			})
			if err != nil {
				return nil, err
			}
			st.do("bench.counters", "bench", c, func() {
				runtime.ReadMemStats(&after)
				out.mallocs += after.Mallocs - before.Mallocs
				out.allocBytes += after.TotalAlloc - before.TotalAlloc
				ev, ce, sl, mv := levelTotals(results, c*spec.Levels+k)
				out.evals, out.centerEvals, out.slides, out.moves = out.evals+ev, out.centerEvals+ce, out.slides+sl, out.moves+mv
				out.coeffEvals += float64(ev+ce) * float64(results[0].PerLevel[c*spec.Levels+k].BandUsed)
			})
			sizeBefore := jr.Size()
			journal(c, func() error { return jr.Level(id, c*spec.Levels+k, results) })
			out.levelRecordBytes += jr.Size() - sizeBefore
			out.levelRecords++
		}
		hits, misses := out.refiner.CutCacheStats()
		out.cacheHits, out.cacheMisses = out.cacheHits+hits, out.cacheMisses+misses

		var full, odd, even *volume.Grid
		st.do(spanFull, "reconstruct", c, func() {
			orients, centers := solutions(results)
			full, err = reconstruct.FromViewsParallel(images, orients, centers, ctfs, recon)
		})
		if err != nil {
			return nil, err
		}
		var digest string
		st.do(spanDigest, "reconstruct", c, func() { digest = reconstruct.MapDigest(full) })
		path := filepath.Join(dir, fmt.Sprintf("%s.cycle-%d.map", id, c))
		st.do(spanMapWrite, "volume", c, func() { err = volume.WriteGridFile(path, full) })
		if err != nil {
			return nil, err
		}
		journal(c, func() error { return jr.CycleMap(id, c, path, digest) })
		st.do(spanHalves, "reconstruct", c, func() {
			orients, centers := solutions(results)
			odd, even, err = reconstruct.SplitHalvesParallel(images, orients, centers, ctfs, recon)
		})
		if err != nil {
			return nil, err
		}
		var curve *fsc.Curve
		st.do(spanFSC, "fsc", c, func() { curve, err = fsc.ComputeParallel(odd, even, ds.PixelA, 0) })
		if err != nil {
			return nil, err
		}
		resA := curve.ResolutionAt(0.5)
		improved, _ := plateau.Observe(resA)
		rec := cycle.CycleFSC{Cycle: c, ResolutionA: resA, MeanCC: curve.MeanCC(), Improved: improved, Plateau: plateau.Count}
		stopped := ""
		if c == spec.MaxCycles-1 {
			stopped = cycle.StopMaxCycles
		}
		journal(c, func() error { return jr.CycleEnd(id, rec, stopped) })
		out.digests = append(out.digests, digest)
		out.history = append(out.history, rec)
		if c == 0 {
			out.cycle0 = time.Since(tr.epoch) - tr.spans[out.root].Start
		}
		if fi, err := os.Stat(path); err == nil {
			out.mapBytes = fi.Size()
		}
		ref = full
	}
	// The terminal record carries the same summary the service computes,
	// so the replay's journal matches the served job's byte for byte.
	var sum serve.Summary
	truth := ds.TrueOrientations()
	for i, r := range results {
		d := geom.AngularDistance(r.Orient, truth[i])
		sum.MeanAngularError += d
		sum.MaxAngularError = math.Max(sum.MaxAngularError, d)
		sum.MeanDistance += r.Distance
	}
	sum.MeanAngularError /= float64(n)
	sum.MeanDistance /= float64(n)
	out.angErr = sum.MeanAngularError
	journal(-1, func() error { return jr.Terminal(id, serve.StateDone, "", &sum) })
	tr.end(out.root)
	out.journalBytes = jr.Size()
	out.ds, out.ctfs, out.results, out.final = ds, ctfs, results, ref
	return out, stageErr
}

// replayAndReport replays the served job's stages, checks the replay
// against it, and reports the per-layer metrics.
func replayAndReport(e *env, served servedJob, scalePoint bool) error {
	spec := served.status.Spec
	rp, err := replayCycles(e.tr, spec, e.base)
	if err != nil {
		return fmt.Errorf("stage replay: %w", err)
	}
	res, tr := e.res, e.tr
	cs := served.status.Cycle
	last := rp.digests[len(rp.digests)-1]
	res.check(last == cs.MapDigest, "stage replay ends on map digest %.12s, the served job on %.12s", last, cs.MapDigest)
	res.check(rp.angErr == served.status.Summary.MeanAngularError, "stage replay ends on angular error %v, the served job on %v", rp.angErr, served.status.Summary.MeanAngularError)
	same := len(cs.History) == len(rp.history)
	for i := 0; same && i < len(rp.history); i++ {
		same = rp.history[i] == cs.History[i]
	}
	res.check(same, "stage replay FSC history %v differs from the served job's", rp.history)

	b := tr.budgetUnder(rp.root)
	cycles := float64(spec.MaxCycles)
	views := float64(served.status.Views)
	perCycle := func(name string) float64 {
		d, _ := tr.total(rp.root, name, -1)
		return d.Seconds() / cycles
	}
	build, _ := tr.total(rp.root, spanBuild, -1)
	res.set("workload.build_s", build.Seconds())
	res.set("fourier.ref_dft_s", perCycle(spanRefDFT))
	var levelWall time.Duration
	for k := 0; k < spec.Levels; k++ {
		name := fmt.Sprintf("%s%d", spanLevel, k)
		all, _ := tr.total(rp.root, name, -1)
		c0, _ := tr.total(rp.root, name, 0)
		levelWall += all
		res.set(name+"_s", all.Seconds()/cycles)
		res.set(name+"_s.c0", c0.Seconds())
		if spec.MaxCycles > 1 {
			res.set(name+"_s.c1plus", (all-c0).Seconds()/(cycles-1))
		}
	}
	passes := views * cycles // one pass = one view through every level of one cycle
	res.set("core.evals_per_view", float64(rp.evals)/passes)
	res.set("core.center_evals_per_view", float64(rp.centerEvals)/passes)
	res.set("core.slides_per_view", float64(rp.slides)/passes)
	res.set("core.descent_moves_per_view", float64(rp.moves)/passes)
	workerNs := float64(levelWall.Nanoseconds()) * float64(rp.refineWorkers)
	res.set("core.ns_per_eval", workerNs/float64(rp.evals+rp.centerEvals))
	if total := rp.cacheHits + rp.cacheMisses; total > 0 {
		res.set("core.cut_cache_hit_rate", float64(rp.cacheHits)/float64(total))
	}
	res.set("core.allocs_per_view", float64(rp.mallocs)/passes)
	res.set("core.alloc_mb_per_view", float64(rp.allocBytes)/passes/(1<<20))
	res.set("core.share", b.layers["core"].Seconds()/b.wall.Seconds())
	res.set("reconstruct.full_s", perCycle(spanFull)) // includes cycle 0's initial reference
	res.set("reconstruct.halves_s", perCycle(spanHalves))
	res.set("reconstruct.digest_ms", perCycle(spanDigest)*1e3)
	res.set("fsc.compute_s", perCycle(spanFSC))
	res.set("volume.map_write_ms", perCycle(spanMapWrite)*1e3)
	res.set("volume.map_bytes", float64(rp.mapBytes))
	// Everything under the replay that no other layer's span covers is
	// the driver's own: cloning and masking the reference, splitting
	// results, and the glue between calls.
	res.set("cycle.self_s", (b.layers["cycle"]+b.rootOwn).Seconds()/cycles)
	appendTime, appends := tr.total(rp.root, spanJournal, -1)
	res.set("serve.journal_append_ms", appendTime.Seconds()*1e3/float64(appends))
	res.set("serve.journal_bytes_per_level", float64(rp.levelRecordBytes)/float64(rp.levelRecords))
	res.check(float64(rp.journalBytes) == res.values["serve.journal_bytes"], "stage replay journaled %d bytes, the served job %.0f", rp.journalBytes, res.values["serve.journal_bytes"])
	res.set("serve.overhead_s", served.wall.Seconds()-b.wall.Seconds())
	res.set("trace.overhead_frac", (b.wall.Seconds()-served.wall.Seconds())/served.wall.Seconds())
	res.setCoverage(b.coverage())

	kernelLoops(e, rp, workerNs)

	// One more cycle 0 at a single thread: the scaling point, and the
	// bit-identity-across-workers check. Unresolved (0) on one core.
	if scalePoint && runtime.GOMAXPROCS(0) > 1 {
		one := spec
		one.MaxCycles = 1
		prev := runtime.GOMAXPROCS(1)
		p1, err := replayCycles(newTracer(e.workload), one, e.base)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return fmt.Errorf("single-thread replay: %w", err)
		}
		res.check(p1.digests[0] == rp.digests[0], "cycle 0 map digest %.12s at one thread, %.12s at %d", p1.digests[0], rp.digests[0], prev)
		res.set("scale.speedup_vs_p1", p1.cycle0.Seconds()/rp.cycle0.Seconds())
	}
	return nil
}

// kernelLoops times the layer entry points under the refinement spans
// on the workload's own views — every view once per round, never one
// view's work replayed — and reconciles the kernel with the level wall
// (workerNs: level wall × refine workers).
func kernelLoops(e *env, rp *replayOut, workerNs float64) {
	res := e.res
	root := e.tr.begin("kernels", "bench", -1, 0, -1)
	defer e.tr.end(root)
	st := stage{e.tr, root}
	images := rp.ds.Images()
	n := len(images)
	l := rp.ds.L
	const rounds = kernelRounds
	perCall := func(name string) float64 {
		d, _ := e.tr.total(root, name, -1)
		return d.Seconds() / float64(rounds*n)
	}

	res.set("fourier.view_fft_us", viewFFTLoop(st, images))

	// The full comparison band, ordered by (radius, h, k) as the
	// matcher's is.
	cfg := core.DefaultConfig(l)
	type coeff struct{ r, h, k float64 }
	var band []coeff
	for h, ri := -int(cfg.RMap), int(cfg.RMap); h <= ri; h++ {
		for k := -ri; k <= ri; k++ {
			if r := math.Hypot(float64(h), float64(k)); r <= cfg.RMap {
				band = append(band, coeff{r, float64(h), float64(k)})
			}
		}
	}
	sort.Slice(band, func(i, j int) bool {
		a, b := band[i], band[j]
		if a.r != b.r {
			return a.r < b.r
		}
		if a.h != b.h {
			return a.h < b.h
		}
		return a.k < b.k
	})
	fh, fk := make([]float64, len(band)), make([]float64, len(band))
	for i, c := range band {
		fh[i], fk[i] = c.h, c.k
	}
	st.do("fourier.sample_cut", "fourier", -1, func() {
		smp := rp.dft.NewSampler(cfg.Interp)
		cut := make([]complex128, len(fh))
		for r := 0; r < rounds; r++ {
			for _, v := range rp.results {
				rot := v.Orient.Matrix()
				smp.SampleCut(cut, fh, fk, rot.Col(0), rot.Col(1))
			}
		}
	})
	res.set("fourier.sample_cut_us", perCall("fourier.sample_cut")*1e6)

	prepared := make([]*core.View, n)
	st.do("core.prepare_view", "core", -1, func() {
		for r := 0; r < rounds; r++ {
			for i, im := range images {
				v, err := rp.refiner.PrepareView(im, rp.ds.Views[i].CTF)
				if err != nil {
					res.check(false, "preparing view %d: %v", i, err)
					return
				}
				prepared[i] = v
			}
		}
	})
	res.set("core.prepare_view_us", perCall("core.prepare_view")*1e6)
	if prepared[n-1] == nil {
		return
	}

	// The search scores a view at orientations a fine-level step apart,
	// so successive cuts touch the same part of the reference spectrum;
	// the kernel is timed in that regime, a burst per view.
	const burst, step = 8, 0.01
	var sink float64
	st.do("core.match", "core", -1, func() {
		for r := 0; r < rounds; r++ {
			for i, v := range prepared {
				o := rp.results[i].Orient
				for j := 0; j < burst; j++ {
					sink += rp.refiner.Distance(v, o)
					o.Theta, o.Phi, o.Omega = o.Theta+step, o.Phi+step, o.Omega+step
				}
			}
		}
	})
	res.check(!math.IsNaN(sink), "matching distance is NaN")
	matchNs := perCall("core.match") * 1e9 / burst
	bandSize := float64(rp.refiner.BandSize())
	res.set("core.match_ns", matchNs)
	res.set("core.match_flops", core.EstimateMatchFlops(rp.refiner.BandSize()))
	// Computed, not measured: per band coefficient one matching reads 8
	// complex corners of the reference spectrum, the view's coefficient,
	// its weight and its two frequencies.
	res.set("core.match_bytes", bandSize*(8*16+16+8+16))
	// What the levels cost over what the bare kernel would have cost for
	// the same evaluations at the band each level used.
	res.set("core.eval_overhead_x", workerNs/(rp.coeffEvals*matchNs/bandSize))

	orients, centers := solutions(rp.results)
	shardedSplit(st, res, images, orients, centers, rp.ctfs, reconstruct.ParallelOptions{Options: reconstruct.Options{WienerCTF: rp.ds.HasCTF}})

	path := filepath.Join(e.base, fmt.Sprintf("read-%s.map", e.workload))
	defer os.Remove(path)
	if err := volume.WriteGridFile(path, rp.final); err != nil {
		res.check(false, "writing map for the read loop: %v", err)
		return
	}
	st.do(spanMapRead, "volume", -1, func() {
		for r := 0; r < rounds; r++ {
			if _, err := volume.ReadGridFile(path); err != nil {
				res.check(false, "reading map back: %v", err)
			}
		}
	})
	d, _ := e.tr.total(root, spanMapRead, -1)
	res.set("volume.map_read_ms", d.Seconds()*1e3/rounds)
}

// kernelRounds is how many times a kernel loop visits every view.
const kernelRounds = 3

// viewFFTLoop times the per-view 2-D transform over every view,
// returning µs per view.
func viewFFTLoop(st stage, images []*volume.Image) float64 {
	l := images[0].L
	st.do("fourier.view_fft", "fourier", -1, func() {
		tx, buf := fourier.NewViewTransformer(l), volume.NewCImage(l)
		for r := 0; r < kernelRounds; r++ {
			for _, im := range images {
				tx.Transform(im, buf)
			}
		}
	})
	d, _ := st.tr.total(st.root, "fourier.view_fft", -1)
	return d.Seconds() * 1e6 / float64(kernelRounds*len(images))
}

// shardedSplit reconstructs a few more times through the sharded
// kernel's own entry points, to tell the insertion half of a
// reconstruction from its merge-and-invert half; the fastest round of
// each is reported.
func shardedSplit(st stage, res *result, images []*volume.Image, orients []geom.Euler, centers [][2]float64, ctfs []ctf.Params, opt reconstruct.ParallelOptions) {
	tasks := make([]reconstruct.ViewTask, len(images))
	for i := range images {
		tasks[i] = reconstruct.ViewTask{Image: images[i], Orient: orients[i], Center: centers[i]}
		if len(ctfs) > 0 {
			tasks[i].CTF = ctfs[i]
		}
	}
	var inserts, finishes []float64
	for r := 0; r < kernelRounds; r++ {
		rec := reconstruct.NewSharded(images[0].L, opt)
		t0 := time.Now()
		st.do("reconstruct.insert", "reconstruct", -1, func() {
			if err := rec.InsertViews(tasks); err != nil {
				res.check(false, "sharded insert: %v", err)
			}
		})
		t1 := time.Now()
		st.do("reconstruct.finish", "reconstruct", -1, func() { rec.Finish() })
		inserts = append(inserts, t1.Sub(t0).Seconds())
		finishes = append(finishes, time.Since(t1).Seconds())
	}
	res.set("reconstruct.insert_us_per_view", fastest(inserts)*1e6/float64(len(tasks)))
	res.set("reconstruct.finish_s", fastest(finishes))
}

// levelTotals sums one schedule level's work counters over the views.
func levelTotals(results []core.Result, level int) (evals, centerEvals, slides, moves int) {
	for i := range results {
		st := results[i].PerLevel[level]
		evals += st.Matchings
		centerEvals += st.CenterEvals
		slides += st.Slides + st.CenterSlides
		moves += st.DescentMoves
	}
	return
}
