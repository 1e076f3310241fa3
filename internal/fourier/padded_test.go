package fourier

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/geom"
	"repro/internal/volume"
)

func TestPaddedRoundTrip(t *testing.T) {
	g := testGrid(20)
	for _, pad := range []int{1, 2, 3} {
		v := NewVolumeDFTPadded(g, pad)
		if v.Pad() != pad {
			t.Fatalf("pad %d reported as %d", pad, v.Pad())
		}
		back := v.Grid()
		if back.L != g.L {
			t.Fatalf("pad %d: round-trip size %d, want %d", pad, back.L, g.L)
		}
		maxDiff := 0.0
		for i := range g.Data {
			if d := math.Abs(g.Data[i] - back.Data[i]); d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff > 1e-9 {
			t.Fatalf("pad %d: round-trip max error %g", pad, maxDiff)
		}
	}
}

func TestPaddedSamplesAgreeAtSharedFrequencies(t *testing.T) {
	// The padded spectrum samples the same continuous transform, so
	// values at integer image frequencies must agree with the
	// unpadded spectrum's lattice values.
	g := testGrid(16)
	v1 := NewVolumeDFT(g)
	v2 := NewVolumeDFTPadded(g, 2)
	for _, f := range []geom.Vec3{{X: 0}, {X: 1}, {X: 3, Y: -2, Z: 1}, {X: -5, Y: 5, Z: -5}} {
		a := v1.Sample(f, Trilinear)
		b := v2.Sample(f, Trilinear)
		if cmplx.Abs(a-b) > 1e-9*(1+cmplx.Abs(a)) {
			t.Fatalf("frequency %v: unpadded %v vs padded %v", f, a, b)
		}
	}
}

func TestPaddedSliceMoreAccurate(t *testing.T) {
	// At a generic orientation, slices of the oversampled spectrum
	// must be closer to the analytically known transform than slices
	// of the raw spectrum. Use a single Gaussian blob, whose centred
	// transform is itself a Gaussian.
	l := 24
	c := float64(l / 2)
	sigma := 2.0
	g := volume.NewGrid(l)
	for x := 0; x < l; x++ {
		for y := 0; y < l; y++ {
			for z := 0; z < l; z++ {
				dx, dy, dz := float64(x)-c, float64(y)-c, float64(z)-c
				g.Set(x, y, z, math.Exp(-(dx*dx+dy*dy+dz*dz)/(2*sigma*sigma)))
			}
		}
	}
	want := func(f geom.Vec3) float64 {
		// FT of exp(-r²/2σ²) = (2πσ²)^{3/2} exp(-2π²σ²|s|²), with
		// s = f/l cycles per voxel.
		s2 := f.Dot(f) / float64(l*l)
		return math.Pow(2*math.Pi*sigma*sigma, 1.5) * math.Exp(-2*math.Pi*math.Pi*sigma*sigma*s2)
	}
	v1 := NewVolumeDFT(g)
	v2 := NewVolumeDFTPadded(g, 2)
	o := geom.Euler{Theta: 37, Phi: 111, Omega: 13}
	m := o.Matrix()
	xa, ya := m.Col(0), m.Col(1)
	var err1, err2 float64
	n := 0
	for h := -8; h <= 8; h++ {
		for k := -8; k <= 8; k++ {
			if h*h+k*k > 64 {
				continue
			}
			f := xa.Scale(float64(h)).Add(ya.Scale(float64(k)))
			wa := want(f)
			err1 += math.Abs(real(v1.Sample(f, Trilinear)) - wa)
			err2 += math.Abs(real(v2.Sample(f, Trilinear)) - wa)
			n++
		}
	}
	if err2 >= err1 {
		t.Fatalf("padding did not improve slice accuracy: pad1 %g vs pad2 %g", err1/float64(n), err2/float64(n))
	}
}

func TestNewVolumeDFTPaddedRejectsBadPad(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pad 0 accepted")
		}
	}()
	NewVolumeDFTPadded(testGrid(8), 0)
}
