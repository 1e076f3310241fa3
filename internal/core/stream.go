package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"

	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/volume"
)

// labeledStage runs body under a runtime/pprof goroutine label
// (key "stage") when instrumentation is enabled, so CPU profiles
// attribute samples to the pipeline stage; otherwise it calls body
// directly.
func labeledStage(stage string, body func()) {
	if obs.Enabled() {
		pprof.Do(context.Background(), pprof.Labels("stage", stage), func(context.Context) { body() })
		return
	}
	body()
}

// Streaming refinement. Preparing every view up front materializes
// all m view spectra at once; on production-scale datasets (the
// paper's 4,422 views of 511² pixels) that is gigabytes of complex
// coefficients that exist only to be reduced to a band. RefineStream —
// the one many-view entry point — instead runs a bounded three-stage
// pipeline
//
//	load → 2-D FFT + CTF + band extraction → refine
//
// where stages are connected by channels of capacity Depth, every
// stage reuses per-worker scratch (the FFT stage owns one spectrum
// buffer and one real-input plan per worker; the refine stage owns one
// matching scratch per worker), and a view's full l² spectrum never
// outlives its band extraction. At any instant the pipeline holds at
// most Depth+FFTWorkers raw images and Depth+RefineWorkers band-sized
// views — independent of the dataset size.

// StreamItem is one view entering the streaming pipeline.
type StreamItem struct {
	// Image is the raw experimental view E_q.
	Image *volume.Image
	// CTF carries the microscope parameters consulted when the refiner
	// is configured for CTF correction or cut weighting.
	CTF ctf.Params
	// Init is the rough initial orientation O_q^init.
	Init geom.Euler
}

// StreamSource produces view i on demand (step b's "read the next
// view" made explicit). It is called sequentially from a single loader
// goroutine, in index order, so implementations may read from a file
// without locking.
type StreamSource func(i int) (StreamItem, error)

// SliceSource adapts already-materialized slices to a StreamSource —
// convenient for tests and benchmarks. ctfs may be nil or empty when
// no CTF state applies.
func SliceSource(views []*volume.Image, ctfs []ctf.Params, inits []geom.Euler) StreamSource {
	return func(i int) (StreamItem, error) {
		it := StreamItem{Image: views[i], Init: inits[i]}
		if len(ctfs) > 0 {
			it.CTF = ctfs[i]
		}
		return it, nil
	}
}

// StreamOptions configures the pipeline shape.
type StreamOptions struct {
	// Depth is the capacity of each inter-stage channel; it bounds how
	// many views sit between stages. ≤0 selects twice the larger
	// worker count.
	Depth int
	// FFTWorkers is the number of transform-stage workers (each owns a
	// reusable spectrum buffer and real-input plan). ≤0 selects
	// GOMAXPROCS.
	FFTWorkers int
	// RefineWorkers is the number of refinement-stage workers (each
	// owns one matching scratch). ≤0 selects GOMAXPROCS. Refinement
	// dominates end-to-end cost, so give it the cores when tuning.
	RefineWorkers int
}

// StreamShape resolves the effective pipeline shape the options would
// select for a large stream: FFT workers, refine workers, and channel
// depth after defaulting. Useful for reporting what a run actually
// used.
func StreamShape(opt StreamOptions) (fftWorkers, refineWorkers, depth int) {
	const many = 1 << 30 // don't let a small n clamp the answer
	return streamShape(many, opt)
}

// streamShape defaults the pipeline shape for a stream of n views:
// worker counts clamp to n, depth to twice the larger worker count.
func streamShape(n int, opt StreamOptions) (fftWorkers, refineWorkers, depth int) {
	fftWorkers = pool.Workers(n, opt.FFTWorkers)
	refineWorkers = pool.Workers(n, opt.RefineWorkers)
	depth = opt.Depth
	if depth <= 0 {
		depth = 2 * max(fftWorkers, refineWorkers)
	}
	return fftWorkers, refineWorkers, depth
}

// RefineStream refines n views pulled on demand from src through the
// bounded pipeline, returning results in input order. Results are
// bit-identical to PrepareView + RefineView on each view in turn:
// per-view refinement is deterministic and workers write only their
// own result slot, so pipeline scheduling cannot leak into the output. The first
// error (from src or from view preparation) cancels the pipeline and
// is returned.
//
// Cancelling ctx aborts the pipeline between views — the loader stops
// pulling, in-flight views finish their current stage, every stage
// goroutine exits before RefineStream returns, and the context's error
// is returned. ctx must be non-nil.
func (r *Refiner) RefineStream(ctx context.Context, n int, src StreamSource, opt StreamOptions) ([]Result, error) {
	return r.refineStreamRange(ctx, n, src, nil, 0, len(r.cfg.Schedule), opt)
}

// RefineStreamLevels runs schedule levels [start, stop) of the
// refinement through the streaming pipeline, continuing each view from
// priors[i] — the serving layer's checkpoint-resume entry point. The
// FFT stage prepares view i freshly from src and then replays every
// centre-shift increment recorded in priors[i].PerLevel (in order),
// which restores the band state of the original run bit-for-bit; the
// refine stage then continues from priors[i].Orient. Running the
// schedule one level at a time through this entry point — re-preparing
// and replaying at each level — therefore produces results
// bit-identical to one uninterrupted RefineStream over the full
// schedule. StreamItem.Init is ignored; priors supply the
// orientations. priors must have length n.
func (r *Refiner) RefineStreamLevels(ctx context.Context, n int, src StreamSource, priors []Result, start, stop int, opt StreamOptions) ([]Result, error) {
	if len(priors) != n {
		return nil, fmt.Errorf("core: %d views but %d prior results", n, len(priors))
	}
	if start < 0 || stop < start || stop > len(r.cfg.Schedule) {
		return nil, fmt.Errorf("core: level range [%d, %d) outside schedule of %d levels", start, stop, len(r.cfg.Schedule))
	}
	return r.refineStreamRange(ctx, n, src, priors, start, stop, opt)
}

// refineStreamRange is the shared pipeline behind RefineStream and
// RefineStreamLevels. priors == nil means "fresh run": each view
// starts from its StreamItem.Init and runs the whole [start, stop)
// range with no shift replay.
func (r *Refiner) refineStreamRange(ctx context.Context, n int, src StreamSource, priors []Result, start, stop int, opt StreamOptions) ([]Result, error) {
	if n < 0 {
		return nil, fmt.Errorf("core: negative view count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	fftWorkers, refineWorkers, depth := streamShape(n, opt)

	type loadedView struct {
		i    int
		item StreamItem
	}
	type preparedView struct {
		i    int
		v    *View
		init geom.Euler
	}
	loaded := make(chan loadedView, depth)
	prepared := make(chan preparedView, depth)
	abort := make(chan struct{})
	var once sync.Once
	var firstErr error
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			close(abort)
		})
	}
	// cancelled reports (and latches) context cancellation; checked
	// between views in every stage so an abort never waits on a full
	// level of work.
	cancelled := func() bool {
		if err := ctx.Err(); err != nil {
			fail(err)
			return true
		}
		return false
	}

	// Stage 1: sequential loader.
	var loadWG sync.WaitGroup
	loadWG.Add(1)
	go labeledStage("core.stream.load", func() {
		defer loadWG.Done()
		defer close(loaded)
		for i := 0; i < n; i++ {
			if cancelled() {
				return
			}
			item, err := src(i)
			if err != nil {
				fail(fmt.Errorf("core: loading view %d: %w", i, err))
				return
			}
			select {
			case loaded <- loadedView{i: i, item: item}:
			case <-abort:
				return
			case <-ctx.Done():
				fail(ctx.Err())
				return
			}
		}
	})

	// Stage 2: 2-D FFT + CTF + band extraction on reusable scratch,
	// plus checkpoint shift replay when resuming from priors.
	var fftWG sync.WaitGroup
	for w := 0; w < fftWorkers; w++ {
		fftWG.Add(1)
		go labeledStage("core.stream.fft", func() {
			defer fftWG.Done()
			trans := fourier.NewViewTransformer(r.m.l)
			buf := volume.NewCImage(r.m.l)
			ramp := r.m.newRamp()
			for lv := range loaded {
				if cancelled() {
					return
				}
				v, err := r.prepareViewReuse(lv.item.Image, lv.item.CTF, trans, buf)
				if err != nil {
					fail(fmt.Errorf("core: preparing view %d: %w", lv.i, err))
					return
				}
				init := lv.item.Init
				if priors != nil {
					for _, st := range priors[lv.i].PerLevel {
						for _, s := range st.Shifts {
							r.m.applyShift(v.vd, s[0], s[1], &ramp)
						}
					}
					init = priors[lv.i].Orient
				}
				if !init.Finite() {
					fail(fmt.Errorf("core: view %d: non-finite orientation %v", lv.i, init))
					return
				}
				select {
				case prepared <- preparedView{i: lv.i, v: v, init: init}:
				case <-abort:
					return
				case <-ctx.Done():
					fail(ctx.Err())
					return
				}
			}
		})
	}
	go func() {
		fftWG.Wait()
		close(prepared)
	}()

	// Stage 3: refinement, one matching scratch per worker; results
	// land in input order by index.
	results := make([]Result, n)
	var refineWG sync.WaitGroup
	for w := 0; w < refineWorkers; w++ {
		refineWG.Add(1)
		go labeledStage("core.stream.refine", func() {
			defer refineWG.Done()
			sc := r.m.newScratch()
			for pv := range prepared {
				if cancelled() {
					return
				}
				prior := Result{Orient: pv.init}
				if priors != nil {
					prior = priors[pv.i]
					prior.Orient = pv.init
				}
				results[pv.i] = r.refineViewRange(pv.v, prior, start, stop, sc, r.cfg.Search)
				streamViews.Inc()
			}
		})
	}
	refineWG.Wait()
	// The refine stage only exits after prepared is closed (fft workers
	// done) or a failure latched; wait for the loader too so no stage
	// goroutine outlives the call.
	loadWG.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// prepareViewReuse is PrepareView's body on caller-owned transform
// scratch: the spectrum lands in buf (overwritten) and only the
// band-sized view state is freshly allocated. PrepareView passes a
// fresh transformer and buffer; the stream's loaders reuse theirs.
func (r *Refiner) prepareViewReuse(im *volume.Image, p ctf.Params, trans *fourier.ViewTransformer, buf *volume.CImage) (*View, error) {
	if im.L != r.m.l {
		return nil, fmt.Errorf("core: view size %d does not match map size %d", im.L, r.m.l)
	}
	trans.Transform(im, buf)
	if r.cfg.CorrectCTF {
		if err := ctf.Correct(buf, p, r.cfg.CTFMode); err != nil {
			return nil, err
		}
	}
	var refW []float64
	if r.cfg.CTFWeightCuts {
		refW = r.m.ctfCutWeights(p)
	}
	return &View{vd: r.m.prepareView(buf, refW)}, nil
}
