package reconstruct

import (
	"testing"

	"repro/internal/ctf"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/phantom"
	"repro/internal/volume"
)

func dataset(t testing.TB, l, n int, gen micrograph.GenParams) *micrograph.Dataset {
	t.Helper()
	truth := phantom.Asymmetric(l, 8, 1)
	truth.SphericalMask(0.4 * float64(l))
	gen.NumViews = n
	if gen.PixelA == 0 {
		gen.PixelA = 2
	}
	return micrograph.Generate(truth, gen)
}

func TestReconstructionRecoversMap(t *testing.T) {
	l := 32
	ds := dataset(t, l, 120, micrograph.GenParams{Seed: 1})
	rec, err := FromViews(ds.Images(), ds.TrueOrientations(), nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Compare band-limited: mask both maps to the particle radius.
	a := ds.Truth.Clone()
	b := rec.Clone()
	a.SphericalMask(0.4 * float64(l))
	b.SphericalMask(0.4 * float64(l))
	if cc := volume.Correlation(a, b); cc < 0.9 {
		t.Fatalf("reconstruction correlation %.4f, want ≥0.9", cc)
	}
}

func TestReconstructionImprovesWithViews(t *testing.T) {
	l := 24
	ds := dataset(t, l, 100, micrograph.GenParams{Seed: 2, SNR: 1})
	few, err := FromViews(ds.Images()[:10], ds.TrueOrientations()[:10], nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	many, err := FromViews(ds.Images(), ds.TrueOrientations(), nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ccFew := volume.Correlation(ds.Truth, few)
	ccMany := volume.Correlation(ds.Truth, many)
	if ccMany <= ccFew {
		t.Fatalf("more views did not help: %d views %.4f vs %d views %.4f",
			10, ccFew, 100, ccMany)
	}
}

func TestReconstructionWithCenters(t *testing.T) {
	// Views with known centre offsets reconstructed with the matching
	// corrections must beat reconstruction that ignores the offsets.
	l := 24
	ds := dataset(t, l, 60, micrograph.GenParams{Seed: 3, CenterJitter: 2})
	centers := make([][2]float64, len(ds.Views))
	for i, v := range ds.Views {
		// The correction is the shift that undoes the jitter.
		centers[i] = [2]float64{-v.TrueCenter[0], -v.TrueCenter[1]}
	}
	good, err := FromViews(ds.Images(), ds.TrueOrientations(), centers, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := FromViews(ds.Images(), ds.TrueOrientations(), nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ccGood := volume.Correlation(ds.Truth, good)
	ccBad := volume.Correlation(ds.Truth, bad)
	if ccGood <= ccBad {
		t.Fatalf("centre corrections did not help: %.4f vs %.4f", ccGood, ccBad)
	}
}

func TestReconstructionDegradesWithWrongOrientations(t *testing.T) {
	l := 24
	ds := dataset(t, l, 60, micrograph.GenParams{Seed: 4})
	good, _ := FromViews(ds.Images(), ds.TrueOrientations(), nil, nil, Options{})
	perturbed := ds.PerturbedOrientations(8, 5)
	bad, _ := FromViews(ds.Images(), perturbed, nil, nil, Options{})
	ccGood := volume.Correlation(ds.Truth, good)
	ccBad := volume.Correlation(ds.Truth, bad)
	// Global correlation is dominated by low frequencies, so the drop
	// is modest — but it must be a clear drop.
	if ccGood-ccBad < 0.01 {
		t.Fatalf("8° orientation errors barely hurt: %.4f vs %.4f", ccGood, ccBad)
	}
}

func TestWienerCTFReconstruction(t *testing.T) {
	l := 32
	ds := dataset(t, l, 100, micrograph.GenParams{Seed: 6, ApplyCTF: true, DefocusGroups: 3})
	var ctfs []ctf.Params
	for _, v := range ds.Views {
		ctfs = append(ctfs, v.CTF)
	}
	withCTF, err := FromViews(ds.Images(), ds.TrueOrientations(), nil, ctfs, Options{WienerCTF: true})
	if err != nil {
		t.Fatal(err)
	}
	withoutCTF, err := FromViews(ds.Images(), ds.TrueOrientations(), nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ccWith := volume.Correlation(ds.Truth, withCTF)
	ccWithout := volume.Correlation(ds.Truth, withoutCTF)
	if ccWith <= ccWithout {
		t.Fatalf("CTF-aware reconstruction (%.4f) no better than naive (%.4f)", ccWith, ccWithout)
	}
}

func TestWienerRequiresParams(t *testing.T) {
	l := 16
	ds := dataset(t, l, 4, micrograph.GenParams{Seed: 7})
	if _, err := FromViews(ds.Images(), ds.TrueOrientations(), nil, nil, Options{WienerCTF: true}); err == nil {
		t.Fatal("WienerCTF without params accepted")
	}
}

func TestSplitHalves(t *testing.T) {
	l := 24
	ds := dataset(t, l, 80, micrograph.GenParams{Seed: 8})
	odd, even, err := SplitHalvesParallel(ds.Images(), ds.TrueOrientations(), nil, nil, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Both halves must resemble the truth and each other.
	if cc := volume.Correlation(odd, even); cc < 0.8 {
		t.Fatalf("half-maps correlation %.4f", cc)
	}
	if cc := volume.Correlation(ds.Truth, odd); cc < 0.7 {
		t.Fatalf("odd half vs truth %.4f", cc)
	}
}

func TestSplitHalvesTooFewViews(t *testing.T) {
	l := 16
	ds := dataset(t, l, 1, micrograph.GenParams{Seed: 9})
	if _, _, err := SplitHalvesParallel(ds.Images(), ds.TrueOrientations(), nil, nil, ParallelOptions{}); err == nil {
		t.Fatal("split of a single view accepted")
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := FromViews(nil, nil, nil, nil, Options{}); err == nil {
		t.Fatal("empty view list accepted")
	}
	im := volume.NewImage(8)
	if _, err := FromViews([]*volume.Image{im}, []geom.Euler{{}, {}}, nil, nil, Options{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// ctfs are indexed per view whenever present, WienerCTF or not.
	two := []*volume.Image{im, im}
	for _, opt := range []Options{{}, {WienerCTF: true}} {
		if _, err := FromViews(two, make([]geom.Euler, 2), nil, make([]ctf.Params, 1), opt); err == nil {
			t.Fatalf("short CTF params accepted (WienerCTF %t)", opt.WienerCTF)
		}
		if _, _, err := SplitHalvesParallel(two, make([]geom.Euler, 2), nil, make([]ctf.Params, 1), ParallelOptions{Options: opt}); err == nil {
			t.Fatalf("short CTF params accepted by SplitHalvesParallel (WienerCTF %t)", opt.WienerCTF)
		}
	}
	rec := New(8, Options{})
	if err := rec.Insert(volume.NewImage(10), geom.Euler{}, [2]float64{}, ctf.Params{}); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestFinishIsRepeatable(t *testing.T) {
	l := 16
	ds := dataset(t, l, 10, micrograph.GenParams{Seed: 11})
	rec := New(l, Options{})
	for i, im := range ds.Images() {
		if err := rec.Insert(im, ds.Views[i].TrueOrient, [2]float64{}, ctf.Params{}); err != nil {
			t.Fatal(err)
		}
	}
	a := rec.Finish()
	b := rec.Finish()
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("Finish mutated accumulation state")
		}
	}
	if rec.Views() != 10 {
		t.Fatalf("view count %d", rec.Views())
	}
}
