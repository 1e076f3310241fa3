package fourier

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/fft"
	"repro/internal/geom"
	"repro/internal/volume"
)

// gaussianBlobGrid builds a compact smooth test density: a few
// Gaussian blobs well inside the box.
func gaussianBlobGrid(l int, blobs [][4]float64) *volume.Grid {
	g := volume.NewGrid(l)
	for x := 0; x < l; x++ {
		for y := 0; y < l; y++ {
			for z := 0; z < l; z++ {
				var v float64
				for _, b := range blobs {
					dx, dy, dz := float64(x)-b[0], float64(y)-b[1], float64(z)-b[2]
					v += math.Exp(-(dx*dx + dy*dy + dz*dz) / (2 * b[3] * b[3]))
				}
				g.Set(x, y, z, v)
			}
		}
	}
	return g
}

func testGrid(l int) *volume.Grid {
	c := float64(l / 2)
	return gaussianBlobGrid(l, [][4]float64{
		{c, c, c, 2.0},
		{c + 5, c - 2, c + 1, 1.5},
		{c - 4, c + 3, c - 3, 1.8},
	})
}

func TestVolumeDFTRoundTrip(t *testing.T) {
	g := testGrid(24)
	v := NewVolumeDFT(g)
	back := v.Grid()
	if c := volume.Correlation(g, back); c < 1-1e-12 {
		t.Fatalf("volume DFT round-trip correlation %g", c)
	}
	maxDiff := 0.0
	for i := range g.Data {
		if d := math.Abs(g.Data[i] - back.Data[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-10 {
		t.Fatalf("volume DFT round-trip max error %g", maxDiff)
	}
}

func TestImageDFTRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	im := volume.NewImage(17)
	for i := range im.Data {
		im.Data[i] = r.NormFloat64()
	}
	back := InverseImageDFT(ImageDFT(im))
	for i := range im.Data {
		if math.Abs(im.Data[i]-back.Data[i]) > 1e-10 {
			t.Fatalf("image DFT round-trip error at %d", i)
		}
	}
}

func TestCenteredSpectrumIsSmoothForCenteredBlob(t *testing.T) {
	// A symmetric blob centred at l/2 has a real, positive, smooth
	// centred spectrum near DC — the property interpolation needs.
	l := 16
	c := float64(l / 2)
	g := gaussianBlobGrid(l, [][4]float64{{c, c, c, 2.5}})
	v := NewVolumeDFT(g)
	for _, idx := range [][3]int{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}} {
		val := v.Data[(idx[0]*l+idx[1])*l+idx[2]]
		if imag(val) > 1e-9 || imag(val) < -1e-9 {
			t.Fatalf("centred spectrum of symmetric blob not real at %v: %v", idx, val)
		}
		if real(val) <= 0 {
			t.Fatalf("centred spectrum not positive at %v: %v", idx, val)
		}
	}
}

func TestSampleAtLatticePoints(t *testing.T) {
	g := testGrid(16)
	v := NewVolumeDFT(g)
	l := 16
	for _, f := range [][3]int{{0, 0, 0}, {3, -2, 1}, {-5, 5, -5}, {7, 0, 0}} {
		want := v.Data[(wrapFreq(f[0], l)*l+wrapFreq(f[1], l))*l+wrapFreq(f[2], l)]
		got := v.Sample(geom.Vec3{X: float64(f[0]), Y: float64(f[1]), Z: float64(f[2])}, Trilinear)
		if cmplx.Abs(got-want) > 1e-12 {
			t.Fatalf("Sample at lattice point %v = %v, want %v", f, got, want)
		}
		gotN := v.Sample(geom.Vec3{X: float64(f[0]), Y: float64(f[1]), Z: float64(f[2])}, Nearest)
		if cmplx.Abs(gotN-want) > 1e-12 {
			t.Fatalf("Nearest sample at lattice point %v mismatch", f)
		}
	}
}

func TestSampleBeyondNyquistIsZero(t *testing.T) {
	v := NewVolumeDFT(testGrid(8))
	if v.Sample(geom.Vec3{X: 5, Y: 0, Z: 0}, Trilinear) != 0 {
		t.Fatal("sample beyond Nyquist must be zero")
	}
}

func TestExtractSliceIdentityOrientation(t *testing.T) {
	// At the identity orientation the slice is the fz=0 plane of the
	// volume spectrum.
	l := 16
	g := testGrid(l)
	v := NewVolumeDFT(g)
	slice := v.ExtractSlice(geom.Euler{}, 6, Trilinear)
	for h := -6; h <= 6; h++ {
		for k := -6; k <= 6; k++ {
			if h*h+k*k > 36 {
				continue
			}
			want := v.Data[(wrapFreq(h, l)*l+wrapFreq(k, l))*l+0]
			got := slice.Data[wrapFreq(h, l)*l+wrapFreq(k, l)]
			if cmplx.Abs(got-want) > 1e-12 {
				t.Fatalf("slice(%d,%d) = %v, want %v", h, k, got, want)
			}
		}
	}
}

func TestExtractSliceBandLimit(t *testing.T) {
	l := 16
	v := NewVolumeDFT(testGrid(l))
	slice := v.ExtractSlice(geom.Euler{Theta: 30, Phi: 60, Omega: 10}, 3, Trilinear)
	for j := 0; j < l; j++ {
		h := j
		if h > l/2 {
			h -= l
		}
		for k := 0; k < l; k++ {
			kk := k
			if kk > l/2 {
				kk -= l
			}
			if h*h+kk*kk > 9 && slice.Data[j*l+k] != 0 {
				t.Fatalf("out-of-band coefficient (%d,%d) nonzero", h, kk)
			}
		}
	}
}

func TestExtractSliceHermitian(t *testing.T) {
	// The slice of a real map's spectrum must itself be Hermitian.
	l := 16
	v := NewVolumeDFT(testGrid(l))
	slice := v.ExtractSlice(geom.Euler{Theta: 47, Phi: 133, Omega: 71}, 6, Trilinear)
	for j := 0; j < l; j++ {
		for k := 0; k < l; k++ {
			a := slice.Data[j*l+k]
			b := slice.Data[((l-j)%l)*l+(l-k)%l]
			if cmplx.Abs(a-cmplx.Conj(b)) > 1e-9 {
				t.Fatalf("slice not Hermitian at (%d,%d): %v vs %v", j, k, a, b)
			}
		}
	}
}

func TestExtractSliceOmegaRotatesInPlane(t *testing.T) {
	// Changing ω rotates the slice within its plane: the set of
	// sampled 3-D frequencies is the same, so the slice energies
	// must match closely.
	v := NewVolumeDFT(testGrid(16))
	s0 := v.ExtractSlice(geom.Euler{Theta: 30, Phi: 40, Omega: 0}, 6, Trilinear)
	s90 := v.ExtractSlice(geom.Euler{Theta: 30, Phi: 40, Omega: 90}, 6, Trilinear)
	e0, e90 := s0.Energy(), s90.Energy()
	if math.Abs(e0-e90)/e0 > 0.05 {
		t.Fatalf("ω=90° slice energy differs: %g vs %g", e0, e90)
	}
}

func TestShiftPhaseMatchesRealShift(t *testing.T) {
	// Phase-ramp shift must agree with spatial-domain shifting for
	// integer offsets of a compact image.
	l := 32
	c := float64(l / 2)
	im := volume.NewImage(l)
	for j := 0; j < l; j++ {
		for k := 0; k < l; k++ {
			dx, dy := float64(j)-c, float64(k)-c
			im.Set(j, k, math.Exp(-(dx*dx+dy*dy)/8))
		}
	}
	f := ImageDFT(im)
	ShiftPhase(f, 3, -2)
	shifted := InverseImageDFT(f)
	want := im.Shift(3, -2)
	if cc := volume.ImageCorrelation(shifted, want); cc < 0.9999 {
		t.Fatalf("phase shift vs real shift correlation %g", cc)
	}
}

func TestShiftPhaseComposes(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	im := volume.NewImage(16)
	for i := range im.Data {
		im.Data[i] = r.NormFloat64()
	}
	a := ImageDFT(im)
	ShiftPhase(a, 1.3, -0.7)
	ShiftPhase(a, -1.3, 0.7)
	b := ImageDFT(im)
	for i := range a.Data {
		if cmplx.Abs(a.Data[i]-b.Data[i]) > 1e-9 {
			t.Fatal("shift composition not identity")
		}
	}
}

// TestGridFromHalfSpectrumMatchesComplexInverse pins the half-spectrum
// inverse to the complex one — centring ramp, fft.Plan3D.Inverse of
// the full spectrum, real part, crop — to ≤ 1e-12 of the map's peak,
// and bit for bit across worker counts. The spectra are of random real
// maps, Hermitian to rounding. Boxes 16, 40 and 48 run the smooth
// kernels, 22 = 2·11 runs Bluestein, 15 and 21 are odd (no Nyquist
// plane), and the padded cases (48 → 24, 22 → 11, 21 → 7) take the
// crop, 22 → 11 with an odd number of z-lines per plane.
func TestGridFromHalfSpectrumMatchesComplexInverse(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, c := range []struct{ bl, l int }{{16, 16}, {40, 40}, {48, 48}, {22, 22}, {15, 15}, {48, 24}, {22, 11}, {21, 7}} {
		m := volume.NewGrid(c.l)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		v := NewVolumeDFTPadded(m, c.bl/c.l)
		ref := append([]complex128(nil), v.Data...)
		ramp := centerRamp(c.bl, -1)
		for x := 0; x < c.bl; x++ {
			rampPlane(ref, ramp, x, c.bl)
		}
		fft.NewPlan3D(c.bl, c.bl, c.bl).Inverse(ref)
		off := c.bl/2 - c.l/2
		want := volume.NewGrid(c.l)
		peak := 0.0
		for x := 0; x < c.l; x++ {
			for y := 0; y < c.l; y++ {
				for z := 0; z < c.l; z++ {
					w := real(ref[((x+off)*c.bl+y+off)*c.bl+z+off])
					want.Set(x, y, z, w)
					peak = math.Max(peak, math.Abs(w))
				}
			}
		}
		nh := c.bl/2 + 1
		var first *volume.Grid
		for _, w := range []int{1, 2, 3, 8} {
			half := make([]complex128, c.bl*c.bl*nh)
			for i := 0; i < c.bl*c.bl; i++ {
				copy(half[i*nh:(i+1)*nh], v.Data[i*c.bl:])
			}
			got := GridFromHalfSpectrum(half, c.bl, c.l, w)
			if first == nil {
				first = got
				for i := range want.Data {
					if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-12*peak {
						t.Fatalf("box %d → %d: voxel %d is %v, complex inverse %v (|Δ| %.3g of peak)", c.bl, c.l, i, got.Data[i], want.Data[i], d/peak)
					}
				}
				continue
			}
			for i := range got.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(first.Data[i]) {
					t.Fatalf("box %d → %d: workers %d differ from 1 at voxel %d", c.bl, c.l, w, i)
				}
			}
		}
	}
}
