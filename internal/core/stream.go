package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/pool"
	"repro/internal/volume"
)

// Streaming refinement. Preparing every view up front materializes
// all m view spectra at once; on production-scale datasets (the
// paper's 4,422 views of 511² pixels) that is gigabytes of complex
// coefficients that exist only to be reduced to a band. RefineStream —
// the one many-view entry point — instead runs the paper's per-node
// loop as one pool pass: each of W workers pulls the next view index,
// then loads the view, takes its 2-D FFT + CTF + band extraction,
// replays any recorded centre shifts, and refines it, all on scratch it
// owns (one real-input transformer, one spectrum buffer and one
// matching scratch). A view's full l² spectrum never outlives its band
// extraction, so at any instant the pass holds at most W raw images and
// W band-sized views — independent of the dataset size.

// StreamItem is one view entering a refinement pass.
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
// view" made explicit). Each index in [0, n) is requested at most
// once, but the pass's workers call it concurrently for distinct i and
// in no particular order, so an implementation must be safe for
// concurrent use.
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

// StreamOptions configures a refinement pass.
type StreamOptions struct {
	// Workers is the number of views refined at once, each on its own
	// scratch. ≤0 selects GOMAXPROCS.
	Workers int
}

// StreamShape reports the worker count opt resolves to on a large
// stream, in the form of the old three-stage pipeline: (W, W, 0).
//
// Deprecated: kept only because cmd/benchcycle still reads it; it goes
// when benchcycle reads the one worker count instead.
func StreamShape(opt StreamOptions) (fftWorkers, refineWorkers, depth int) {
	w := pool.Workers(math.MaxInt, opt.Workers)
	return w, w, 0
}

// RefineStream refines n views pulled on demand from src in one pool
// pass, returning results in input order. Results are bit-identical
// to PrepareView + RefineView on each view in turn: per-view
// refinement is deterministic and workers write only their own result
// slot, so scheduling cannot leak into the output. The first error
// latched (from src, from view preparation, or from ctx) stops workers
// from starting further views and is returned with nil results.
//
// ctx is checked before each view and once more after the pass, so a
// cancellation aborts between views and is never lost, even when it
// lands during the last one; the pass's workers have all exited by the
// time RefineStream returns. ctx must be non-nil.
func (r *Refiner) RefineStream(ctx context.Context, n int, src StreamSource, opt StreamOptions) ([]Result, error) {
	return r.refineStreamRange(ctx, n, src, nil, 0, len(r.cfg.Schedule), opt)
}

// RefineStreamLevels runs schedule levels [start, stop) of the
// refinement as one pool pass, continuing each view from priors[i] —
// the serving layer's checkpoint-resume entry point. A worker prepares
// view i freshly from src and then replays every centre-shift
// increment recorded in priors[i].PerLevel (in order), which restores
// the band state of the original run bit-for-bit, before continuing
// from priors[i].Orient. Running the schedule one level at a time
// through this entry point — re-preparing and replaying at each level
// — therefore produces results bit-identical to one uninterrupted
// RefineStream over the full schedule. StreamItem.Init is ignored;
// priors supply the orientations. priors must have length n. Errors
// and cancellation behave as in RefineStream.
func (r *Refiner) RefineStreamLevels(ctx context.Context, n int, src StreamSource, priors []Result, start, stop int, opt StreamOptions) ([]Result, error) {
	if len(priors) != n {
		return nil, fmt.Errorf("core: %d views but %d prior results", n, len(priors))
	}
	if start < 0 || stop < start || stop > len(r.cfg.Schedule) {
		return nil, fmt.Errorf("core: level range [%d, %d) outside schedule of %d levels", start, stop, len(r.cfg.Schedule))
	}
	return r.refineStreamRange(ctx, n, src, priors, start, stop, opt)
}

// streamWorker is the scratch one pool worker owns for the whole pass,
// borrowed from the refiner's free lists and returned after it.
type streamWorker struct {
	ts *transformScratch
	sc *matchScratch
}

// refineStreamRange is the shared pool pass behind RefineStream and
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
	// Every pass starts each worker on an empty cell memo, so which
	// scratch a worker draws does not move its hits and misses.
	workers := make([]streamWorker, pool.Workers(n, opt.Workers))
	for w := range workers {
		workers[w] = streamWorker{r.getTransform(), r.getScratch()}
		workers[w].sc.cells.Reset()
	}
	defer func() {
		for _, w := range workers {
			r.putTransform(w.ts)
			r.putScratch(w.sc)
		}
	}()
	results := make([]Result, n)
	var firstErr atomic.Pointer[error]
	pool.RunIndexedLabeled("core.refine", n, len(workers), func(w, i int) {
		if firstErr.Load() != nil {
			return
		}
		err := ctx.Err()
		if err == nil {
			results[i], err = r.streamView(i, src, priors, start, stop, &workers[w])
		}
		if err != nil {
			firstErr.CompareAndSwap(nil, &err)
		}
	})
	if err := firstErr.Load(); err != nil {
		return nil, *err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// streamView is one view of the pass: load, transform, replay the
// prior's recorded shifts, check the starting orientation, refine.
func (r *Refiner) streamView(i int, src StreamSource, priors []Result, start, stop int, w *streamWorker) (Result, error) {
	item, err := src(i)
	if err != nil {
		return Result{}, fmt.Errorf("core: loading view %d: %w", i, err)
	}
	v, err := r.prepareViewReuse(item.Image, item.CTF, w.ts.trans, w.ts.buf)
	if err != nil {
		return Result{}, fmt.Errorf("core: preparing view %d: %w", i, err)
	}
	prior := Result{Orient: item.Init}
	if priors != nil {
		prior = priors[i]
		for _, st := range prior.PerLevel {
			for _, s := range st.Shifts {
				r.m.applyShift(v.vd, s[0], s[1], &w.sc.ramp)
			}
		}
	}
	if !prior.Orient.Finite() {
		return Result{}, fmt.Errorf("core: view %d: non-finite orientation %v", i, prior.Orient)
	}
	res := r.refineViewRange(v, prior, start, stop, w.sc, r.cfg.Search)
	streamViews.Inc()
	return res, nil
}

// prepareViewReuse is PrepareView's body on caller-owned transform
// scratch: the spectrum lands in buf (overwritten) and only the
// band-sized view state is freshly allocated. PrepareView passes a
// fresh transformer and buffer; the stream's workers reuse theirs.
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
