package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fourier"
	"repro/internal/reconstruct"
	"repro/internal/workload"
)

// TestAdaptiveEvalBudget gates the one performance number a shared
// runner can gate: how many distance evaluations the production
// descent spends. It is cycle 0 of the benchmark's cycle_adaptive job
// at 16 views (sindbis-like, L = 48, SNR 1.5, 2° initial error, init
// and search seed 1): the four-level schedule against the masked map
// reconstructed from the rough orientations, where the minimum moves
// as each level widens the band. The count repeats exactly, so it is
// pinned, and it must stay at or under 0.65 × the 29 461 evaluations
// the same views cost at c861f40, before the descent had its pattern
// move (11 and 6 of the 16 views ended levels 2 and 3 at the slide cap
// there). Against the truth map the minimum barely moves between
// levels and the same views cost 10 136 there, 9 181 here.
func TestAdaptiveEvalBudget(t *testing.T) {
	const (
		parentEvals = 29461
		wantEvals   = 18009
	)
	spec := workload.SindbisSpec()
	spec.NumViews = 16
	ds := spec.Build()
	inits := ds.PerturbedOrientations(spec.InitError, 1)
	ref, err := reconstruct.FromViews(ds.Images(), inits, nil, nil, reconstruct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref.SphericalMask(0.45 * float64(spec.L))
	cfg := core.DefaultConfig(spec.L)
	cfg.SearchSeed = 1
	r, err := core.NewRefiner(fourier.NewVolumeDFTPadded(ref, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	perLevel := make([]int, len(cfg.Schedule))
	capped := make([]int, len(cfg.Schedule))
	total := 0
	for i, v := range ds.Views {
		pv, err := r.PrepareView(v.Image, v.CTF)
		if err != nil {
			t.Fatal(err)
		}
		res := r.RefineView(pv, inits[i])
		for li, st := range res.PerLevel {
			perLevel[li] += st.Matchings
			if st.Slides >= cfg.MaxSlides {
				capped[li]++
			}
		}
		total += res.TotalMatchings()
	}
	t.Logf("%d evaluations over %d views (per level %v, views at the slide cap %v); parent %d",
		total, len(ds.Views), perLevel, capped, parentEvals)
	if total != wantEvals {
		t.Errorf("adaptive search: %d distance evaluations, want %d", total, wantEvals)
	}
	if float64(total) > 0.65*parentEvals {
		t.Errorf("adaptive search: %d distance evaluations, over 0.65 × the parent's %d", total, parentEvals)
	}
}
