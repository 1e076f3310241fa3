package fourier

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fft"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/volume"
)

// randomDensity is a map of independent normal voxels.
func randomDensity(l int, seed int64) *volume.Grid {
	rng := rand.New(rand.NewSource(seed))
	g := volume.NewGrid(l)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	return g
}

// randomVolumeDFT builds the spectrum of a random density at the given
// oversampling factor.
func randomVolumeDFT(l, pad int, seed int64) *VolumeDFT {
	return NewVolumeDFTPadded(randomDensity(l, seed), max(pad, 1))
}

func cdiff(a, b complex128) float64 {
	return math.Hypot(real(a)-real(b), imag(a)-imag(b))
}

// TestSamplerMatchesSample drives the fused sampler and the scalar
// reference over randomized in-band and out-of-band points, for both
// interpolation modes and both padded and unpadded spectra.
func TestSamplerMatchesSample(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pad    int
		interp Interpolation
	}{
		{"trilinear-unpadded", 1, Trilinear},
		{"trilinear-padded", 2, Trilinear},
		{"nearest-unpadded", 1, Nearest},
		{"nearest-padded", 2, Nearest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dft := randomVolumeDFT(16, tc.pad, 41)
			s := dft.NewSampler(tc.interp)
			rng := rand.New(rand.NewSource(7))
			scale := 0.0
			for _, v := range dft.Data {
				if a := real(v)*real(v) + imag(v)*imag(v); a > scale {
					scale = a
				}
			}
			scale = math.Sqrt(scale)
			for i := 0; i < 4000; i++ {
				// Span well past Nyquist so the out-of-band zero path is
				// exercised too.
				f := geom.Vec3{
					X: (rng.Float64() - 0.5) * 22,
					Y: (rng.Float64() - 0.5) * 22,
					Z: (rng.Float64() - 0.5) * 22,
				}
				want := dft.Sample(f, tc.interp)
				got := s.At(f.X, f.Y, f.Z)
				if d := cdiff(got, want); d > 1e-12*scale {
					t.Fatalf("point %v: fused %v, reference %v (diff %g)", f, got, want, d)
				}
			}
		})
	}
}

// TestSampleCutMatchesSample checks the batched band kernel against
// per-point reference sampling for random orientations and bands.
func TestSampleCutMatchesSample(t *testing.T) {
	for _, interp := range []Interpolation{Trilinear, Nearest} {
		dft := randomVolumeDFT(16, 2, 43)
		s := dft.NewSampler(interp)
		rng := rand.New(rand.NewSource(11))
		const nBand = 120
		fh := make([]float64, nBand)
		fk := make([]float64, nBand)
		for i := range fh {
			fh[i] = float64(rng.Intn(17) - 8)
			fk[i] = float64(rng.Intn(17) - 8)
		}
		dst := make([]complex128, nBand)
		for trial := 0; trial < 40; trial++ {
			o := geom.Euler{
				Theta: rng.Float64() * 180,
				Phi:   rng.Float64() * 360,
				Omega: rng.Float64() * 360,
			}
			rot := o.Matrix()
			xa, ya := rot.Col(0), rot.Col(1)
			s.SampleCut(dst, fh, fk, xa, ya)
			for i := range dst {
				f := xa.Scale(fh[i]).Add(ya.Scale(fk[i]))
				want := dft.Sample(f, interp)
				if d := cdiff(dst[i], want); d > 1e-12 {
					t.Fatalf("interp %v band %d orient %v: fused %v, reference %v",
						interp, i, o, dst[i], want)
				}
			}
		}
	}
}

// TestSamplerEdgeFrequencies pins the wrap arithmetic at the exact
// Nyquist boundary, where the conditional-subtract path replaces
// modulo wrapping.
func TestSamplerEdgeFrequencies(t *testing.T) {
	dft := randomVolumeDFT(16, 1, 47)
	s := dft.NewSampler(Trilinear)
	ny := float64(dft.L) / 2
	for _, f := range []geom.Vec3{
		{X: ny}, {Y: ny}, {Z: ny},
		{X: -ny}, {Y: -ny}, {Z: -ny},
		{X: ny, Y: -ny, Z: ny},
		{X: ny - 0.5, Y: 0.5 - ny, Z: 0},
		{X: ny + 1e-9},
	} {
		want := dft.Sample(f, Trilinear)
		got := s.At(f.X, f.Y, f.Z)
		if d := cdiff(got, want); d > 1e-12 {
			t.Fatalf("edge point %v: fused %v, reference %v", f, got, want)
		}
	}
}

// TestSampleCutFriedelSymmetry: the spectrum of a real map is
// Hermitian, and both interpolations preserve that, so the cut at
// (−h, −k) is the conjugate of the cut at (h, k) for every orientation.
// core's half-band matcher depends on exactly this. The band runs out
// to r = l/2, so coefficients on the Nyquist boundary of the padded
// lattice — where ±L/2 alias to one lattice plane — are covered,
// including the axis-aligned orientations that land on it exactly.
func TestSampleCutFriedelSymmetry(t *testing.T) {
	const l = 16
	dft := randomVolumeDFT(l, 2, 53)
	scale := 0.0
	for _, v := range dft.Data {
		scale = math.Max(scale, math.Hypot(real(v), imag(v)))
	}
	var fh, fk, nh, nk []float64
	for h := -l / 2; h <= l/2; h++ {
		for k := -l / 2; k <= l/2; k++ {
			if h*h+k*k <= l*l/4 {
				fh, fk = append(fh, float64(h)), append(fk, float64(k))
				nh, nk = append(nh, float64(-h)), append(nk, float64(-k))
			}
		}
	}
	rng := rand.New(rand.NewSource(13))
	orients := []geom.Euler{{}, {Theta: 90}, {Theta: 90, Phi: 90}, {Omega: 90}, {Theta: 180, Phi: 270, Omega: 90}}
	for i := 0; i < 40; i++ {
		orients = append(orients, geom.Euler{Theta: rng.Float64() * 180, Phi: rng.Float64() * 360, Omega: rng.Float64() * 360})
	}
	pos, neg := make([]complex128, len(fh)), make([]complex128, len(fh))
	for _, interp := range []Interpolation{Trilinear, Nearest} {
		s := dft.NewSampler(interp)
		for _, o := range orients {
			rot := o.Matrix()
			s.SampleCut(pos, fh, fk, rot.Col(0), rot.Col(1))
			s.SampleCut(neg, nh, nk, rot.Col(0), rot.Col(1))
			nonzero := 0
			for i := range pos {
				if d := cdiff(pos[i], complex(real(neg[i]), -imag(neg[i]))); d > 1e-12*scale {
					t.Fatalf("interp %v orient %v (h,k)=(%g,%g): C(h,k) = %v, C(−h,−k) = %v (diff %g)",
						interp, o, fh[i], fk[i], pos[i], neg[i], d)
				}
				if pos[i] != 0 {
					nonzero++
				}
			}
			if nonzero < len(pos)/2 {
				t.Fatalf("interp %v orient %v: only %d of %d coefficients in band", interp, o, nonzero, len(pos))
			}
		}
	}
}

// TestKernelsAllocFree: the //repro:hotpath kernels of this package —
// the sampler (At, SampleCut, SampleCutMemo, in both interpolations)
// and the three line passes of GridFromHalfSpectrum — allocate nothing per call with
// instrumentation on, counting everything below them (the trilinear
// blend, frequency wrapping, the 1-D inverse FFTs).
func TestKernelsAllocFree(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	dft := randomVolumeDFT(16, 2, 5)
	rot := geom.Euler{Theta: 31, Phi: 47, Omega: 12}.Matrix()
	fh, fk := []float64{0, 1, -3, 4, 7}, []float64{0, 2, 5, -6, 1}
	cut := make([]complex128, len(fh))
	for _, interp := range []Interpolation{Trilinear, Nearest} {
		s := dft.NewSampler(interp)
		if a := testing.AllocsPerRun(50, func() { s.At(3.7, -2.2, 5.9) }); a != 0 {
			t.Errorf("interp %v: At allocates %v times per call", interp, a)
		}
		if a := testing.AllocsPerRun(50, func() { s.SampleCut(cut, fh, fk, rot.Col(0), rot.Col(1)) }); a != 0 {
			t.Errorf("interp %v: SampleCut allocates %v times per call", interp, a)
		}
		memo := NewCellMemo(len(fh))
		if a := testing.AllocsPerRun(50, func() { s.SampleCutMemo(cut, fh, fk, rot.Col(0), rot.Col(1), memo) }); a != 0 {
			t.Errorf("interp %v: SampleCutMemo allocates %v times per call", interp, a)
		}
	}

	const bl, l = 12, 10
	nh := bl/2 + 1
	half := make([]complex128, bl*bl*nh)
	for i := range half {
		half[i] = complex(float64(i%7), float64(i%5))
	}
	hw := halfWorker{plan: fft.NewPlan(bl), line: make([]complex128, bl), slab: make([]complex128, nh*bl)}
	ramp := centerRamp(bl, -1)
	zero := make([]complex128, nh)
	plane := make([]float64, l*l)
	for name, pass := range map[string]func(){
		"yPass": func() { hw.yPass(half, ramp, 3, bl) },
		"xPass": func() { hw.xPass(half, 4, bl, l) },
		"zPass": func() { hw.zPass(plane, half, zero, 5, bl, l) },
	} {
		if a := testing.AllocsPerRun(20, pass); a != 0 {
			t.Errorf("%s allocates %v times per call", name, a)
		}
	}
}

func BenchmarkSamplerAt(b *testing.B) {
	dft := randomVolumeDFT(32, 2, 3)
	s := dft.NewSampler(Trilinear)
	b.ReportAllocs()
	var acc complex128
	for i := 0; i < b.N; i++ {
		acc += s.At(3.7, -2.2, 5.9)
	}
	_ = acc
}

func BenchmarkVolumeDFTSample(b *testing.B) {
	dft := randomVolumeDFT(32, 2, 3)
	f := geom.Vec3{X: 3.7, Y: -2.2, Z: 5.9}
	b.ReportAllocs()
	var acc complex128
	for i := 0; i < b.N; i++ {
		acc += dft.Sample(f, Trilinear)
	}
	_ = acc
}
