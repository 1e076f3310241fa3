package core

import (
	"math"
	"testing"

	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/phantom"
	"repro/internal/volume"
)

// testSetup builds a small asymmetric phantom, its spectrum, and a
// noiseless dataset.
func testSetup(t testing.TB, l, nViews int, gen micrograph.GenParams) (*fourier.VolumeDFT, *micrograph.Dataset) {
	t.Helper()
	truth := phantom.Asymmetric(l, 8, 1)
	truth.SphericalMask(0.4 * float64(l))
	gen.NumViews = nViews
	if gen.PixelA == 0 {
		gen.PixelA = 2
	}
	ds := micrograph.Generate(truth, gen)
	return fourier.NewVolumeDFTPadded(truth, 2), ds
}

func quickConfig(l int) Config {
	cfg := DefaultConfig(l)
	// Two levels keep tests fast while still exercising the
	// multi-resolution machinery.
	cfg.Schedule = []Level{
		{RAngular: 1, WindowHalf: 4, CenterDelta: 1, CenterHalf: 1},
		{RAngular: 0.1, WindowHalf: 0.4, CenterDelta: 0.1, CenterHalf: 1},
	}
	return cfg
}

func TestRefineViewRecoversOrientation(t *testing.T) {
	l := 24
	dft, ds := testSetup(t, l, 6, micrograph.GenParams{Seed: 3})
	r, err := NewRefiner(dft, quickConfig(l))
	if err != nil {
		t.Fatal(err)
	}
	inits := ds.PerturbedOrientations(2.5, 4)
	for i, v := range ds.Views {
		f, err := r.PrepareView(v.Image, v.CTF)
		if err != nil {
			t.Fatal(err)
		}
		res := r.RefineView(f, inits[i])
		before := geom.AngularDistance(inits[i], v.TrueOrient)
		after := geom.AngularDistance(res.Orient, v.TrueOrient)
		if after > 0.7 {
			t.Errorf("view %d: refined error %.3f° (initial %.3f°)", i, after, before)
		}
		if after >= before {
			t.Errorf("view %d: refinement did not improve (%.3f° -> %.3f°)", i, before, after)
		}
	}
}

func TestRefineViewRecoversCenter(t *testing.T) {
	l := 24
	dft, ds := testSetup(t, l, 5, micrograph.GenParams{Seed: 5, CenterJitter: 1.5})
	r, err := NewRefiner(dft, quickConfig(l))
	if err != nil {
		t.Fatal(err)
	}
	inits := ds.PerturbedOrientations(1.5, 6)
	for i, v := range ds.Views {
		f, _ := r.PrepareView(v.Image, v.CTF)
		res := r.RefineView(f, inits[i])
		// The view was shifted by TrueCenter, so refinement should
		// find the shift that undoes it: Center ≈ −TrueCenter...
		// in fact the refiner reports where the particle origin is
		// relative to the box centre, with the applied correction
		// moving it back. Check the residual after correction.
		dx := res.Center[0] + v.TrueCenter[0]
		dy := res.Center[1] + v.TrueCenter[1]
		if math.Hypot(dx, dy) > 0.5 {
			t.Errorf("view %d: centre residual (%.2f, %.2f) px; found %v, true %v",
				i, dx, dy, res.Center, v.TrueCenter)
		}
	}
}

func TestSlidingWindowActivates(t *testing.T) {
	// Start farther away than the window half-width: the optimum is
	// initially outside the window and only the sliding mechanism can
	// reach it.
	l := 24
	dft, ds := testSetup(t, l, 1, micrograph.GenParams{Seed: 7})
	cfg := quickConfig(l)
	cfg.Schedule = []Level{{RAngular: 1, WindowHalf: 3}}
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := ds.Views[0]
	init := v.TrueOrient.Add(geom.Euler{Theta: 5, Phi: -6, Omega: 5})
	f, _ := r.PrepareView(v.Image, v.CTF)
	res := r.RefineView(f, init)
	if res.PerLevel[0].Slides == 0 {
		t.Fatal("sliding window never activated despite out-of-window start")
	}
	if d := geom.AngularDistance(res.Orient, v.TrueOrient); d > 1.5 {
		t.Fatalf("sliding search missed optimum by %.2f°", d)
	}
}

func TestNoSlidesWhenStartNearTruth(t *testing.T) {
	l := 24
	dft, ds := testSetup(t, l, 1, micrograph.GenParams{Seed: 8})
	cfg := quickConfig(l)
	cfg.Schedule = []Level{{RAngular: 1, WindowHalf: 4}}
	r, _ := NewRefiner(dft, cfg)
	v := ds.Views[0]
	f, _ := r.PrepareView(v.Image, v.CTF)
	res := r.RefineView(f, v.TrueOrient)
	if res.PerLevel[0].Slides != 0 {
		t.Fatalf("window slid %d times from a perfect start", res.PerLevel[0].Slides)
	}
}

func TestDistanceMinimalAtTruth(t *testing.T) {
	// d(F, C) must be smaller at the true orientation than at
	// perturbed ones — the objective the whole search relies on.
	l := 24
	dft, ds := testSetup(t, l, 1, micrograph.GenParams{Seed: 9})
	r, _ := NewRefiner(dft, DefaultConfig(l))
	v := ds.Views[0]
	pv, _ := r.PrepareView(v.Image, v.CTF)
	sc := r.m.newScratch()
	d0 := r.m.distance(pv.vd, v.TrueOrient, len(r.m.band), sc)
	for _, delta := range []geom.Euler{
		{Theta: 2}, {Phi: -3}, {Omega: 2}, {Theta: -1, Phi: 1, Omega: -1},
	} {
		d := r.m.distance(pv.vd, v.TrueOrient.Add(delta), len(r.m.band), sc)
		if d <= d0 {
			t.Errorf("distance at offset %v (%g) not worse than truth (%g)", delta, d, d0)
		}
	}
}

func TestRefineWithCTFCorrection(t *testing.T) {
	l := 32
	dft, ds := testSetup(t, l, 3, micrograph.GenParams{Seed: 10, ApplyCTF: true, DefocusGroups: 2})
	cfg := quickConfig(l)
	cfg.CorrectCTF = true
	cfg.CTFMode = ctf.PhaseFlip
	cfg.CTFWeightCuts = true
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inits := ds.PerturbedOrientations(2, 11)
	for i, v := range ds.Views {
		f, err := r.PrepareView(v.Image, v.CTF)
		if err != nil {
			t.Fatal(err)
		}
		res := r.RefineView(f, inits[i])
		if d := geom.AngularDistance(res.Orient, v.TrueOrient); d > 1.0 {
			t.Errorf("CTF view %d: refined error %.3f°", i, d)
		}
	}
}

func TestRefineWithNoise(t *testing.T) {
	l := 32
	dft, ds := testSetup(t, l, 3, micrograph.GenParams{Seed: 12, SNR: 2})
	r, _ := NewRefiner(dft, quickConfig(l))
	inits := ds.PerturbedOrientations(2, 13)
	for i, v := range ds.Views {
		f, _ := r.PrepareView(v.Image, v.CTF)
		res := r.RefineView(f, inits[i])
		before := geom.AngularDistance(inits[i], v.TrueOrient)
		after := geom.AngularDistance(res.Orient, v.TrueOrient)
		if after >= before {
			t.Errorf("noisy view %d: no improvement (%.2f° -> %.2f°)", i, before, after)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	l := 16
	truth := phantom.Asymmetric(l, 3, 1)
	dft := fourier.NewVolumeDFT(truth)
	bad := []Config{
		{RMap: 0},
		{RMap: 5, Schedule: []Level{{RAngular: -1}}},
		{RMap: 5, Schedule: []Level{{RAngular: 1, WindowHalf: -2}}},
		{RMap: 5, MaxSlides: -1, Schedule: []Level{{RAngular: 1}}},
	}
	for i, cfg := range bad {
		if _, err := NewRefiner(dft, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPrepareViewSizeMismatch(t *testing.T) {
	l := 16
	dft, _ := testSetup(t, l, 1, micrograph.GenParams{Seed: 17})
	r, _ := NewRefiner(dft, quickConfig(l))
	if _, err := r.PrepareView(volume.NewImage(l+2), ctf.Params{}); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestMultiResolutionCheaperThanFlat(t *testing.T) {
	// §4: a multi-resolution search needs orders of magnitude fewer
	// matchings than a flat search at the finest resolution over the
	// same domain.
	l := 24
	dft, ds := testSetup(t, l, 1, micrograph.GenParams{Seed: 18})
	cfg := quickConfig(l)
	r, _ := NewRefiner(dft, cfg)
	v := ds.Views[0]
	f, _ := r.PrepareView(v.Image, v.CTF)
	res := r.RefineView(f, v.TrueOrient.Add(geom.Euler{Theta: 1, Phi: -1, Omega: 1}))
	multi := res.TotalMatchings()
	// Flat equivalent: the level-1 domain (±4°) sampled at the final
	// 0.1° resolution = 81³ points.
	flat := 81 * 81 * 81
	if multi*50 > flat {
		t.Fatalf("multi-resolution used %d matchings, flat equivalent %d — expected ≥50× saving", multi, flat)
	}
}
