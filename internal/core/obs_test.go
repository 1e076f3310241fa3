package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
)

// The determinism contract under instrumentation: enabling counters,
// pprof stage labels, trace recording and the structured event log
// must leave refinement output and simulated-clock totals
// bit-identical. Instruments only read the
// simulated clock and bump atomics — these tests pin that property
// (and run under -race in CI, exercising the concurrent bumps).

func TestRefineStreamBitIdenticalUnderObs(t *testing.T) {
	r, ds := streamFixture(t, 5)
	perturb := geom.Euler{Theta: -0.6, Phi: 0.4, Omega: 0.9}
	n, src := datasetSource(ds, perturb)
	opt := StreamOptions{Workers: 2}

	prev := obs.SetEnabled(false)
	defer obs.SetEnabled(prev)
	plain, err := r.RefineStream(context.Background(), n, src, opt)
	if err != nil {
		t.Fatal(err)
	}

	obs.SetEnabled(true)
	obs.StartEvents(1024)
	instrumented, err := r.RefineStream(context.Background(), n, src, opt)
	obs.StopEvents()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatal("RefineStream results differ under instrumentation")
	}
}

// TestSamplerCountsPerJob: the cell memo tallies its cuts and refineLevel
// publishes them once per level, and a job's fourier.sampler totals are
// the ones recorded at dc261d1, when every cut counted into the process
// counters as it ran. One worker carries one memo across the views, so
// the hit/miss split is fixed; two workers split the views between two
// memos, which moves the split but not the cuts, coefficients or
// in-band samples.
func TestSamplerCountsPerJob(t *testing.T) {
	r, ds := streamFixture(t, 5)
	n, src := datasetSource(ds, geom.Euler{Theta: -0.6, Phi: 0.4, Omega: 0.9})
	defer obs.SetEnabled(obs.SetEnabled(true))
	names := []string{"cut_calls", "cut_coeffs", "cell_hits", "cell_misses"}
	for _, w := range []int{1, 2} {
		before := obs.Values()
		if _, err := r.RefineStream(context.Background(), n, src, StreamOptions{Workers: w}); err != nil {
			t.Fatal(err)
		}
		after := obs.Values()
		var got [4]int64
		for i, name := range names {
			got[i] = after["fourier.sampler."+name] - before["fourier.sampler."+name]
		}
		want := [4]int64{465, 30225, 18204, 12021}
		if w > 1 {
			got[2], got[3] = got[2]+got[3], 0
			want[2], want[3] = want[2]+want[3], 0
		}
		if got != want {
			t.Errorf("%d workers: %v = %v, want %v", w, names, got, want)
		}
	}
}

// TestLevelCountersRecord: one refinement's level summary carries
// exactly the LevelStats the result reports.
func TestLevelCountersRecord(t *testing.T) {
	r, ds := streamFixture(t, 1)
	pv, err := r.PrepareView(ds.Views[0].Image, ds.Views[0].CTF)
	if err != nil {
		t.Fatal(err)
	}
	res := r.RefineView(pv, ds.Views[0].TrueOrient.Add(geom.Euler{Theta: 0.5}))
	if len(res.PerLevel) == 0 {
		t.Fatal("no per-level stats")
	}
	st := res.PerLevel[0]
	sum := Summarize([]Result{res}, 0, r.MaxSlides())
	if sum.Views != 1 || sum.Matchings != st.Matchings {
		t.Fatalf("level-0 summary %d views, %d matchings; LevelStats says %d", sum.Views, sum.Matchings, st.Matchings)
	}
	if sum.CenterEvals != st.CenterEvals {
		t.Fatalf("level-0 summary %d centre evals, LevelStats says %d", sum.CenterEvals, st.CenterEvals)
	}
}

// TestSearchHealthCountersRecord: the pattern-move counters move with
// the descent — every accepted extension was first an attempt, and a
// run of accepted extensions ends on a rejected one — and the level
// summary's SlideCapped counts exactly the levels that spent the whole
// slide budget.
func TestSearchHealthCountersRecord(t *testing.T) {
	r, v := smokeFixture(t, []Level{{RAngular: 0.01, WindowHalf: 0.04}})
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	run := func() Result {
		pv, err := r.PrepareView(v.Image, v.CTF)
		if err != nil {
			t.Fatal(err)
		}
		return r.RefineView(pv, v.TrueOrient.Add(geom.Euler{Omega: 1}))
	}

	evals, hits := patternEvals.Value(), patternHits.Value()
	res := run()
	evals, hits = patternEvals.Value()-evals, patternHits.Value()-hits
	if hits == 0 || evals <= hits {
		t.Errorf("pattern move: %d attempts, %d accepted", evals, hits)
	}
	if st, sum := res.PerLevel[0], Summarize([]Result{res}, 0, r.MaxSlides()); st.Slides >= r.MaxSlides() || sum.SlideCapped != 0 {
		t.Errorf("converged level (%d slides) counted as capped", st.Slides)
	}

	r.cfg.MaxSlides = 1
	res = run()
	if st, sum := res.PerLevel[0], Summarize([]Result{res}, 0, r.MaxSlides()); st.Slides != 1 || sum.SlideCapped != 1 {
		t.Errorf("level with its one slide spent (%d slides) has SlideCapped %d, want 1", st.Slides, sum.SlideCapped)
	}
}

// TestStreamPassesReuseScratch: a refiner's stream passes borrow their
// workers' scratch from the refiner and return it, so a later pass
// makes no new scratch for a worker an earlier pass had, and each pass
// starts on an empty cell memo, so back-to-back one-worker passes over
// the same views publish the same cell hits and misses.
func TestStreamPassesReuseScratch(t *testing.T) {
	r, ds := streamFixture(t, 5)
	n, src := datasetSource(ds, geom.Euler{Theta: -0.6, Phi: 0.4, Omega: 0.9})
	defer obs.SetEnabled(obs.SetEnabled(true))
	var first [2]int64
	var sc *matchScratch
	for pass, workers := range []int{1, 1, 1, 2} {
		before := obs.Values()
		if _, err := r.RefineStream(context.Background(), n, src, StreamOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		after := obs.Values()
		got := [2]int64{
			after["fourier.sampler.cell_hits"] - before["fourier.sampler.cell_hits"],
			after["fourier.sampler.cell_misses"] - before["fourier.sampler.cell_misses"],
		}
		free := r.scratch.free
		if len(free) != workers || len(r.transforms.free) != workers {
			t.Fatalf("pass %d: refiner holds %d match and %d transform scratches after a %d-worker pass",
				pass, len(free), len(r.transforms.free), workers)
		}
		switch {
		case pass == 0:
			first, sc = got, free[0]
		case free[0] != sc:
			t.Fatalf("pass %d made new match scratch for its first worker", pass)
		case workers == 1 && got != first:
			t.Errorf("pass %d: cell hits, misses = %v, first pass %v", pass, got, first)
		}
	}
}

// TestRefinerConcurrentUse: goroutines that share one refiner borrow
// and return its scratch at once, through PrepareView, Distance and
// stream passes, and each gets what it gets alone.
func TestRefinerConcurrentUse(t *testing.T) {
	r, ds := streamFixture(t, 3)
	n, src := datasetSource(ds, geom.Euler{Theta: 0.4, Phi: -0.3, Omega: 0.2})
	want, err := r.RefineStream(context.Background(), n, src, StreamOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := ds.Views[0]
	pv, err := r.PrepareView(v.Image, v.CTF)
	if err != nil {
		t.Fatal(err)
	}
	wantD := r.Distance(pv, v.TrueOrient)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := r.RefineStream(context.Background(), n, src, StreamOptions{Workers: 2})
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent stream pass: %v, results equal %t", err, err == nil && reflect.DeepEqual(got, want))
			}
			pv, err := r.PrepareView(v.Image, v.CTF)
			if err != nil {
				t.Error(err)
				return
			}
			if d := r.Distance(pv, v.TrueOrient); d != wantD {
				t.Errorf("concurrent distance %v, alone %v", d, wantD)
			}
		}()
	}
	wg.Wait()
}
