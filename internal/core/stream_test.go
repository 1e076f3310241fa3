package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/phantom"
	"repro/internal/volume"
)

func streamFixture(t testing.TB, m int) (*Refiner, *micrograph.Dataset) {
	t.Helper()
	const l = 16
	truth := phantom.Asymmetric(l, 5, 1)
	truth.SphericalMask(6)
	ds := micrograph.Generate(truth, micrograph.GenParams{NumViews: m, PixelA: 2.5, Seed: 7})
	dft := fourier.NewVolumeDFTPadded(truth, 2)
	cfg := DefaultConfig(l)
	cfg.Schedule = []Level{{RAngular: 1, WindowHalf: 2, CenterDelta: 1, CenterHalf: 1}}
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, ds
}

func datasetSource(ds *micrograph.Dataset, perturb geom.Euler) (int, StreamSource) {
	views := make([]*volume.Image, len(ds.Views))
	ctfs := make([]ctf.Params, len(ds.Views))
	inits := make([]geom.Euler, len(ds.Views))
	for i, v := range ds.Views {
		views[i] = v.Image
		ctfs[i] = v.CTF
		inits[i] = v.TrueOrient.Add(perturb)
	}
	return len(views), SliceSource(views, ctfs, inits)
}

// TestRefineStreamMatchesSerial: the pool pass must produce results
// bit-identical to the serial form — PrepareView + RefineView, one view
// at a time — at every worker count, in both search modes. PrepareView transforms through fourier.ImageDFT
// and the stream through a reused ViewTransformer, so this also pins
// the two view-transform paths to each other.
func TestRefineStreamMatchesSerial(t *testing.T) {
	l := 24
	dft, ds := testSetup(t, l, 6, micrograph.GenParams{Seed: 14, CenterJitter: 1})
	inits := ds.PerturbedOrientations(2, 15)
	src := SliceSource(ds.Images(), ds.CTFs(), inits)
	for _, mode := range []SearchMode{SearchAdaptive, SearchExhaustive} {
		cfg := quickConfig(l)
		cfg.Search = mode
		cfg.SearchSeed = 77
		r, err := NewRefiner(dft, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Result, len(ds.Views))
		for i, v := range ds.Views {
			pv, err := r.PrepareView(v.Image, v.CTF)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = r.RefineView(pv, inits[i])
		}
		for _, opt := range []StreamOptions{{}, {Workers: 1}, {Workers: 2}, {Workers: 4}, {Workers: 8}} {
			got, err := r.RefineStream(context.Background(), len(ds.Views), src, opt)
			if err != nil {
				t.Fatalf("%s opt %+v: %v", mode, opt, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s opt %+v: stream results differ from serial RefineView", mode, opt)
			}
		}
	}
}

// TestRefineStreamPropagatesErrors: a failing source stops the pass
// and surfaces the error; a size-mismatched view fails in preparation
// the same way.
func TestRefineStreamPropagatesErrors(t *testing.T) {
	r, ds := streamFixture(t, 4)
	boom := errors.New("disk on fire")
	n, good := datasetSource(ds, geom.Euler{})
	_, err := r.RefineStream(context.Background(), n, func(i int) (StreamItem, error) {
		if i == 2 {
			return StreamItem{}, boom
		}
		return good(i)
	}, StreamOptions{})
	if !errors.Is(err, boom) {
		t.Fatalf("source error not propagated: %v", err)
	}

	_, err = r.RefineStream(context.Background(), 1, func(int) (StreamItem, error) {
		return StreamItem{Image: volume.NewImage(8)}, nil
	}, StreamOptions{})
	if err == nil {
		t.Fatal("size mismatch not surfaced")
	}
}

// TestRefineStreamEmpty: zero views is a no-op, not a deadlock.
func TestRefineStreamEmpty(t *testing.T) {
	r, _ := streamFixture(t, 1)
	res, err := r.RefineStream(context.Background(), 0, func(int) (StreamItem, error) {
		panic("source must not be called")
	}, StreamOptions{})
	if err != nil || res != nil {
		t.Fatalf("empty stream: %v %v", res, err)
	}
}

// TestRefineStreamCancelNoLeak: cancelling the context mid-stream
// aborts between views, surfaces ctx.Err(), and leaks no goroutine —
// every pool worker must have exited by the time RefineStream returns.
func TestRefineStreamCancelNoLeak(t *testing.T) {
	r, ds := streamFixture(t, 8)
	n, src := datasetSource(ds, geom.Euler{Theta: 0.5})

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancelling := func(i int) (StreamItem, error) {
		if i == 3 {
			cancel()
		}
		return src(i)
	}
	res, err := r.RefineStream(ctx, n, cancelling, StreamOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (res %v)", err, res)
	}
	if res != nil {
		t.Fatalf("cancelled stream returned results: %v", res)
	}
	// RefineStream waits for its own goroutines before returning, so
	// any excess here would be a worker leak. Allow a short settle
	// for unrelated runtime goroutines.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before %d, after %d", before, runtime.NumGoroutine())
}

// TestRefineStreamCancelAtLastView: a cancellation that lands while
// the source is producing the last view still surfaces as
// context.Canceled with nil results. No view check follows it, so only
// the check after the pass can see it.
func TestRefineStreamCancelAtLastView(t *testing.T) {
	r, ds := streamFixture(t, 4)
	n, src := datasetSource(ds, geom.Euler{Theta: 0.5})
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		cancelling := func(i int) (StreamItem, error) {
			if i == n-1 {
				cancel()
			}
			return src(i)
		}
		res, err := r.RefineStream(ctx, n, cancelling, StreamOptions{Workers: workers})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: want context.Canceled, got %v", workers, err)
		}
		if res != nil {
			t.Fatalf("workers %d: cancelled stream returned results: %v", workers, res)
		}
	}
}

// TestRefineStreamLevelsResume: running the schedule one level at a
// time through RefineStreamLevels — re-preparing each view from the
// raw image and replaying the recorded shift increments — must produce
// results bit-identical to one uninterrupted RefineStream over the
// full schedule. This is the property the serving layer's checkpoint
// resume rests on.
func TestRefineStreamLevelsResume(t *testing.T) {
	const l = 16
	truth := phantom.Asymmetric(l, 5, 1)
	truth.SphericalMask(6)
	ds := micrograph.Generate(truth, micrograph.GenParams{NumViews: 5, PixelA: 2.5, CenterJitter: 1.0, Seed: 9})
	dft := fourier.NewVolumeDFTPadded(truth, 2)
	cfg := DefaultConfig(l)
	cfg.Schedule = []Level{
		{RAngular: 1, WindowHalf: 2, CenterDelta: 1, CenterHalf: 1, RMapFrac: 0.5},
		{RAngular: 0.5, WindowHalf: 1, CenterDelta: 0.5, CenterHalf: 1},
		{RAngular: 0.1, WindowHalf: 0.2, CenterDelta: 0.1, CenterHalf: 1},
	}
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perturb := geom.Euler{Theta: 1.1, Phi: -0.7, Omega: 0.4}
	n, src := datasetSource(ds, perturb)
	ctx := context.Background()
	opt := StreamOptions{Workers: 2}

	want, err := r.RefineStream(ctx, n, src, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Level at a time, as the job service runs it between checkpoints.
	priors := make([]Result, n)
	for i := 0; i < n; i++ {
		it, _ := src(i)
		priors[i] = Result{Orient: it.Init}
	}
	for k := 0; k < len(cfg.Schedule); k++ {
		priors, err = r.RefineStreamLevels(ctx, n, src, priors, k, k+1, opt)
		if err != nil {
			t.Fatalf("level %d: %v", k, err)
		}
	}
	if !reflect.DeepEqual(want, priors) {
		for i := range want {
			if !reflect.DeepEqual(want[i], priors[i]) {
				t.Errorf("view %d: full %+v vs level-wise %+v", i, want[i], priors[i])
			}
		}
		t.Fatal("level-wise resume diverged from uninterrupted run")
	}
	// The recorded shifts must account exactly for the final centre.
	for i, res := range want {
		var dx, dy float64
		for _, st := range res.PerLevel {
			for _, s := range st.Shifts {
				dx += s[0]
				dy += s[1]
			}
		}
		if dx != res.Center[0] || dy != res.Center[1] {
			t.Errorf("view %d: shifts sum to (%g, %g), Center is (%g, %g)", i, dx, dy, res.Center[0], res.Center[1])
		}
	}
}

// TestRefineStreamLevelsValidation: bad priors length and level ranges
// are rejected up front.
func TestRefineStreamLevelsValidation(t *testing.T) {
	r, ds := streamFixture(t, 2)
	n, src := datasetSource(ds, geom.Euler{})
	ctx := context.Background()
	if _, err := r.RefineStreamLevels(ctx, n, src, make([]Result, n+1), 0, 1, StreamOptions{}); err == nil {
		t.Fatal("priors length mismatch not rejected")
	}
	if _, err := r.RefineStreamLevels(ctx, n, src, make([]Result, n), 0, 99, StreamOptions{}); err == nil {
		t.Fatal("out-of-range level not rejected")
	}
	if _, err := r.RefineStreamLevels(ctx, n, src, make([]Result, n), -1, 1, StreamOptions{}); err == nil {
		t.Fatal("negative start level not rejected")
	}
}

// TestRefineStreamNonFiniteOrientation: a NaN or infinite starting
// orientation, from StreamItem.Init or from a prior's Orient, is
// refused with an error before refinement. It used to reach the cut
// sampler and panic a refine worker, which no caller can recover.
func TestRefineStreamNonFiniteOrientation(t *testing.T) {
	r, ds := streamFixture(t, 3)
	ctx := context.Background()
	for _, bad := range []geom.Euler{{Theta: math.NaN()}, {Phi: math.Inf(1)}, {Omega: math.Inf(-1)}} {
		n, good := datasetSource(ds, geom.Euler{})
		src := func(i int) (StreamItem, error) {
			it, err := good(i)
			if i == 1 {
				it.Init = bad
			}
			return it, err
		}
		if _, err := r.RefineStream(ctx, n, src, StreamOptions{}); err == nil {
			t.Fatalf("RefineStream accepted initial orientation %v", bad)
		}
		priors := make([]Result, n)
		priors[2].Orient = bad
		if _, err := r.RefineStreamLevels(ctx, n, good, priors, 0, 1, StreamOptions{}); err == nil {
			t.Fatalf("RefineStreamLevels accepted prior orientation %v", bad)
		}
	}
}
