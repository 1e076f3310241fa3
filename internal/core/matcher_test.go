package core

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/phantom"
)

func matcherFixture(t testing.TB, cfg Config) (*Refiner, *micrograph.Dataset) {
	t.Helper()
	truth := phantom.Asymmetric(20, 6, 1)
	truth.SphericalMask(8)
	ds := micrograph.Generate(truth, micrograph.GenParams{NumViews: 2, PixelA: 2, Seed: 2})
	dft := fourier.NewVolumeDFTPadded(truth, 2)
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, ds
}

func TestDistanceNonNegative(t *testing.T) {
	r, ds := matcherFixture(t, DefaultConfig(20))
	pv, _ := r.PrepareView(ds.Views[0].Image, ds.Views[0].CTF)
	sc := r.m.newScratch()
	f := func(th, ph, om float64) bool {
		o := geom.Euler{
			Theta: math.Mod(math.Abs(th), 180),
			Phi:   math.Mod(math.Abs(ph), 360),
			Omega: math.Mod(math.Abs(om), 360),
		}
		return r.m.distance(pv.vd, o, len(r.m.band), sc) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceRawVsNormalized(t *testing.T) {
	// The raw (paper-formula) distance at the true orientation must
	// be small for a noiseless view; the normalized distance must be
	// invariant under scaling the view intensity.
	cfgRaw := DefaultConfig(20)
	cfgRaw.NormalizeScale = false
	rRaw, ds := matcherFixture(t, cfgRaw)
	v := ds.Views[0]
	pv, _ := rRaw.PrepareView(v.Image, v.CTF)
	sc := rRaw.m.newScratch()
	dTruth := rRaw.m.distance(pv.vd, v.TrueOrient, len(rRaw.m.band), sc)
	dOff := rRaw.m.distance(pv.vd, v.TrueOrient.Add(geom.Euler{Theta: 5}), len(rRaw.m.band), sc)
	if dTruth >= dOff {
		t.Fatalf("raw distance at truth (%g) not below offset (%g)", dTruth, dOff)
	}

	rNorm, _ := matcherFixture(t, DefaultConfig(20))
	scaled := v.Image.Clone()
	scaled.Scale(7.5)
	pv1, _ := rNorm.PrepareView(v.Image, v.CTF)
	pv2, _ := rNorm.PrepareView(scaled, v.CTF)
	// Ranking of two orientations must be preserved under scaling.
	scn := rNorm.m.newScratch()
	a1 := rNorm.m.distance(pv1.vd, v.TrueOrient, len(rNorm.m.band), scn)
	b1 := rNorm.m.distance(pv1.vd, v.TrueOrient.Add(geom.Euler{Phi: 4}), len(rNorm.m.band), scn)
	a2 := rNorm.m.distance(pv2.vd, v.TrueOrient, len(rNorm.m.band), scn)
	b2 := rNorm.m.distance(pv2.vd, v.TrueOrient.Add(geom.Euler{Phi: 4}), len(rNorm.m.band), scn)
	if (a1 < b1) != (a2 < b2) {
		t.Fatal("normalized distance ranking changed under intensity scaling")
	}
}

func TestBandSortedByRadius(t *testing.T) {
	r, _ := matcherFixture(t, DefaultConfig(20))
	for i := 1; i < len(r.m.band); i++ {
		if r.m.band[i].radius < r.m.band[i-1].radius {
			t.Fatal("band not sorted by radius")
		}
	}
}

func TestPrefixLen(t *testing.T) {
	r, _ := matcherFixture(t, DefaultConfig(20))
	full := len(r.m.band)
	if got := r.m.prefixLen(1e9); got != full {
		t.Fatalf("prefixLen(inf) = %d, want %d", got, full)
	}
	if got := r.m.prefixLen(0); got > 1 {
		t.Fatalf("prefixLen(0) = %d", got)
	}
	half := r.m.prefixLen(4)
	if half <= 1 || half >= full {
		t.Fatalf("prefixLen(4) = %d of %d", half, full)
	}
	// Every entry below the cut is within radius, everything after is
	// beyond it.
	for i := 0; i < half; i++ {
		if r.m.band[i].radius > 4 {
			t.Fatal("prefix contains out-of-radius entry")
		}
	}
	if r.m.band[half].radius <= 4 {
		t.Fatal("prefix excluded an in-radius entry")
	}
}

func TestApplyShiftPreservesPrefixEnergyConsistency(t *testing.T) {
	r, ds := matcherFixture(t, DefaultConfig(20))
	pv, _ := r.PrepareView(ds.Views[0].Image, ds.Views[0].CTF)
	orig := append([]complex128(nil), pv.vd.vals...)
	before := pv.vd.prefixE[len(pv.vd.prefixE)-1]
	rp := r.m.newRamp()
	const dx, dy = 1.3, -0.4
	r.m.applyShift(pv.vd, dx, dy, &rp)
	after := pv.vd.prefixE[len(pv.vd.prefixE)-1]
	// A phase ramp is unitary per coefficient: total band energy is
	// unchanged.
	if math.Abs(before-after) > 1e-12*before {
		t.Fatalf("shift changed band energy: %g -> %g", before, after)
	}
	// And prefix sums must remain monotone and consistent.
	for i := 1; i < len(pv.vd.prefixE); i++ {
		if pv.vd.prefixE[i] < pv.vd.prefixE[i-1] {
			t.Fatal("prefix energies not monotone")
		}
	}
	// The separable tables reproduce the per-coefficient ramp
	// e^{−2πi(h·dx + k·dy)/l}.
	for i, e := range r.m.band {
		s, c := math.Sincos(-2 * math.Pi / float64(r.m.l) * (float64(e.h)*dx + float64(e.k)*dy))
		want := orig[i] * complex(c, s)
		if d := cmplx.Abs(pv.vd.vals[i] - want); d > 1e-12*cmplx.Abs(orig[i]) {
			t.Fatalf("entry %d (h=%d, k=%d): table ramp %v, per-coefficient ramp %v", i, e.h, e.k, pv.vd.vals[i], want)
		}
	}
}

func TestShiftedDistanceAgreesWithAppliedShift(t *testing.T) {
	r, ds := matcherFixture(t, DefaultConfig(20))
	v := ds.Views[0]
	pv, _ := r.PrepareView(v.Image, v.CTF)
	n := len(r.m.band)
	cut := make([]complex128, n)
	ec, _ := r.m.scoreCut(pv.vd, v.TrueOrient, cut, fourier.NewCellMemo(n))
	want := centerDistanceAt(r.m, pv.vd, cut, ec, 0.7, -1.1)
	rp := r.m.newRamp()
	r.m.applyShift(pv.vd, 0.7, -1.1, &rp)
	got := centerDistanceAt(r.m, pv.vd, cut, ec, 0, 0)
	if math.Abs(want-got) > 1e-12*(1+want) {
		t.Fatalf("centre distance at the shift %g != at zero after applyShift %g", want, got)
	}
}

// BenchmarkCenterKernel times one centre evaluation — the ramp-table
// fill plus one pass over the cross-spectrum — at l = 48 over the full
// band: the per-point cost of the centre box (steps k–l), beside
// BenchmarkMatchKernel's per-orientation cost. The cross-spectrum is
// formed once per search and stays outside the loop. TestRefineLevelAllocs
// holds the kernel at 0 allocs/op.
func BenchmarkCenterKernel(b *testing.B) {
	const l = 48
	dft, ds := testSetup(b, l, 1, micrograph.GenParams{Seed: 2})
	r, err := NewRefiner(dft, DefaultConfig(l))
	if err != nil {
		b.Fatal(err)
	}
	v := ds.Views[0]
	pv, err := r.PrepareView(v.Image, v.CTF)
	if err != nil {
		b.Fatal(err)
	}
	sc := r.m.newScratch()
	n := len(r.m.band)
	ec, _ := r.m.scoreCut(pv.vd, v.TrueOrient, sc.cut[:n], sc.cells)
	g := sc.cross[:n]
	r.m.crossSpectrum(pv.vd, sc.cut[:n], g)
	b.ReportAllocs()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		// Walk a 3×3 box of 0.01 px steps, as the 0.01° level does.
		dx, dy := 0.01*float64(i%3-1), 0.01*float64(i/3%3-1)
		acc += r.m.centerDistance(pv.vd, g, ec, dx, dy, &sc.ramp)
	}
	b.StopTimer()
	centerSink = acc
	b.ReportMetric(float64(n), "half-band-coeffs")
}

// centerSink keeps BenchmarkCenterKernel's result live.
var centerSink float64

func TestEstimateMatchFlopsMonotone(t *testing.T) {
	if EstimateMatchFlops(100) >= EstimateMatchFlops(200) {
		t.Fatal("match flops not monotone in band size")
	}
	if EstimateViewFFTFlops(64) >= EstimateViewFFTFlops(128) {
		t.Fatal("view FFT flops not monotone in size")
	}
	if EstimateViewFFTFlops(1) != 0 {
		t.Fatal("degenerate FFT flops nonzero")
	}
}

func TestCTFCutWeightsShape(t *testing.T) {
	r, _ := matcherFixture(t, DefaultConfig(20))
	p := ctf.Typical(2.0)
	w := r.m.ctfCutWeights(p)
	if len(w) != len(r.m.band) {
		t.Fatal("weight length mismatch")
	}
	for i, v := range w {
		if v < 0 || v > 1.2 {
			t.Fatalf("weight %d = %g out of range", i, v)
		}
	}
}

func TestBandSizeScalesWithRadius(t *testing.T) {
	small := BandSize(64, Config{RMap: 8, Schedule: DefaultSchedule()})
	big := BandSize(64, Config{RMap: 16, Schedule: DefaultSchedule()})
	// Area scaling: 4x the coefficients for 2x the radius.
	ratio := float64(big) / float64(small)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("band scaling ratio %g, want ≈4", ratio)
	}
}
