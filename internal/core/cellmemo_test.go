package core

import (
	"reflect"
	"testing"

	"repro/internal/micrograph"
	"repro/internal/obs"
)

// TestCellMemoCarriesOverBitIdentical refines views level by level on
// one scratch, whose cell memo holds the cells of every earlier
// candidate, level and view, and requires each result — orientation,
// centre, distance and every per-level count — to equal a run on a
// fresh scratch: a memo hit blends the corners the gather would have
// read, whatever the slot held before. It logs the memo's hit rate on
// each level of DefaultSchedule (fourier.sampler.cell_{hits,misses}).
func TestCellMemoCarriesOverBitIdentical(t *testing.T) {
	const l = 24
	dft, ds := testSetup(t, l, 4, micrograph.GenParams{Seed: 5, CenterJitter: 1})
	r, err := NewRefiner(dft, DefaultConfig(l))
	if err != nil {
		t.Fatal(err)
	}
	defer obs.SetEnabled(obs.SetEnabled(true))
	sched := r.cfg.Schedule
	hits, misses := make([]int64, len(sched)), make([]int64, len(sched))
	shared := r.m.newScratch()
	inits := ds.PerturbedOrientations(2, 7)
	for i, v := range ds.Views {
		var views [2]*View
		for j := range views {
			if views[j], err = r.PrepareView(v.Image, v.CTF); err != nil {
				t.Fatal(err)
			}
		}
		got := Result{Orient: inits[i]}
		for li := range sched {
			before := obs.Values()
			got = r.refineViewRange(views[0], got, li, li+1, shared, r.cfg.Search)
			after := obs.Values()
			hits[li] += after["fourier.sampler.cell_hits"] - before["fourier.sampler.cell_hits"]
			misses[li] += after["fourier.sampler.cell_misses"] - before["fourier.sampler.cell_misses"]
		}
		want := r.refineViewRange(views[1], Result{Orient: inits[i]}, 0, len(sched), r.m.newScratch(), r.cfg.Search)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("view %d: on a carried-over memo %+v, on a fresh one %+v", i, got, want)
		}
	}
	for li, lv := range sched {
		if hits[li]+misses[li] == 0 {
			t.Fatalf("level %d (%g°) sampled nothing through the memo", li, lv.RAngular)
		}
		t.Logf("level %d (%g°): %d hits, %d misses (%.3f)", li, lv.RAngular, hits[li], misses[li], float64(hits[li])/float64(hits[li]+misses[li]))
	}
}
