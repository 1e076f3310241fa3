package fourier

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/fft"
	"repro/internal/geom"
	"repro/internal/volume"
)

// fullCube is the reference spectrum as NewVolumeDFTPadded stored it
// before the half layout: every point of the L³ lattice, the mirror
// half filled by X[−q] = conj X[q] straight after the transform and
// then centred with the same ramp as the stored half.
// TestFullCubeIsParentSpectrum pins its bytes to that construction's.
type fullCube struct {
	l, srcL int
	data    []complex128
}

// newFullCube builds the full-cube reference spectrum of g at the given
// oversampling factor.
func newFullCube(g *volume.Grid, pad int) *fullCube {
	bl := pad * g.L
	nh := bl/2 + 1
	half := make([]complex128, bl*bl*nh)
	fft.NewRealPlan3D(bl).Forward(g.Data, g.L, half)
	ramp := centerRamp(bl, +1)
	c := &fullCube{l: bl, srcL: g.L, data: make([]complex128, bl*bl*bl)}
	for x := 0; x < bl; x++ {
		for y := 0; y < bl; y++ {
			mir := (mirrorIndex(x, bl)*bl + mirrorIndex(y, bl)) * nh
			rxy := ramp[x] * ramp[y]
			for z := 0; z < bl; z++ {
				var v complex128
				if z < nh {
					v = half[(x*bl+y)*nh+z]
				} else {
					v = cmplx.Conj(half[mir+bl-z])
				}
				c.data[(x*bl+y)*bl+z] = v * (rxy * ramp[z])
			}
		}
	}
	return c
}

func (c *fullCube) at(x, y, z int) complex128 { return c.data[(x*c.l+y)*c.l+z] }

// read is the Sampler's read of the full cube at the padded-lattice
// point (x, y, z): out of band zero, else the eight corners in gather's
// order blended by blend, at offsets snapped by snap when nearest.
func (c *fullCube) read(x, y, z float64, nearest bool) complex128 {
	l := c.l
	ny := float64(l) / 2
	if x < -ny || x > ny || y < -ny || y > ny || z < -ny || z > ny {
		return 0
	}
	xf, yf, zf := math.Floor(x), math.Floor(y), math.Floor(z)
	var corners [8]complex128
	for i := range corners {
		corners[i] = c.at(wrapFreq(int(xf)+i>>2, l), wrapFreq(int(yf)+i>>1&1, l), wrapFreq(int(zf)+i&1, l))
	}
	fx, fy, fz := x-xf, y-yf, z-zf
	if nearest {
		fx, fy, fz = snap(fx), snap(fy), snap(fz)
	}
	return blend(&corners, fx, fy, fz)
}

// sample is VolumeDFT.Sample as it read the full cube.
func (c *fullCube) sample(f geom.Vec3, interp Interpolation) complex128 {
	s := float64(c.l / c.srcL)
	x, y, z := f.X*s, f.Y*s, f.Z*s
	l := c.l
	ny := float64(l) / 2
	if x < -ny || x > ny || y < -ny || y > ny || z < -ny || z > ny {
		return 0
	}
	x0, y0, z0 := int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z))
	fx, fy, fz := x-float64(x0), y-float64(y0), z-float64(z0)
	if interp == Nearest {
		fx, fy, fz = snap(fx), snap(fy), snap(fz)
	}
	var sum complex128
	for i := 0; i < 8; i++ {
		dx, dy, dz := i>>2, i>>1&1, i&1
		w := [2]float64{1 - fx, fx}[dx] * [2]float64{1 - fy, fy}[dy] * [2]float64{1 - fz, fz}[dz]
		if w == 0 {
			continue
		}
		sum += complex(w, 0) * c.at(wrapFreq(x0+dx, l), wrapFreq(y0+dy, l), wrapFreq(z0+dz, l))
	}
	return sum
}

// peak is the largest coefficient magnitude of the cube.
func (c *fullCube) peak() float64 {
	p := 0.0
	for _, v := range c.data {
		p = math.Max(p, cmplx.Abs(v))
	}
	return p
}

// nearNyquist reports whether reading the padded-lattice point (x, y)
// may touch a corner on the x or y Nyquist index L/2 of an even
// lattice. Those are the only points whose mirrored value differs from
// the full cube's: ±L/2 is one index, so its centring ramp factor is
// its own mirror's rather than that factor's conjugate.
func nearNyquist(x, y float64, l int) bool {
	lim := float64(l)/2 - 1
	return l%2 == 0 && (math.Abs(x) >= lim || math.Abs(y) >= lim)
}

// checkVsFull fails unless got equals the full-cube value want bit for
// bit, or, where the read may touch a mirrored Nyquist point (near),
// to 1e-12 of the peak. It reports whether the read was held exactly.
func checkVsFull(t testing.TB, what string, got, want complex128, near bool, peak float64) bool {
	t.Helper()
	if near {
		if d := cdiff(got, want); d > 1e-12*peak {
			t.Fatalf("%s: %v, full cube %v (|Δ| %.3g of peak, near Nyquist)", what, got, want, d/peak)
		}
		return false
	}
	if !sameBits(got, want) {
		t.Fatalf("%s: %v, full cube %v: not bit-identical", what, got, want)
	}
	return true
}

// randomGrid is a random density with every seventh voxel zero, so
// some lines of the transform are sparse.
func randomGrid(l int, seed int64) *volume.Grid {
	rng := rand.New(rand.NewSource(seed))
	g := volume.NewGrid(l)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
		if i%7 == 0 {
			g.Data[i] = 0
		}
	}
	return g
}

// TestFullCubeIsParentSpectrum: the reference full cube is, byte for
// byte, the spectrum NewVolumeDFTPadded returned before the half
// layout. The hashes were recorded at b2ca433 from its Data (real and
// imaginary parts as little-endian float64 bits, in index order).
func TestFullCubeIsParentSpectrum(t *testing.T) {
	for _, c := range []struct {
		l, pad int
		seed   int64
		golden string
	}{
		{8, 1, 1, "216b100b75b06f1d40fa17934096dbf584d83bee8bb8d1ad2d6d34f1724144cf"},
		{9, 1, 2, "3de18c1f074d1276929208d09ba35429ad01607add73bffc49d51018b7a783a8"},
		{8, 2, 3, "a34342c62dbd59ec4183cc92d02d0e560160f15fe813630acea60c08bd30e874"},
		{9, 2, 4, "3260194263fc933812dc859504e861c81c4cb1487f2efd11e61b979291c2bb3b"},
		{7, 3, 5, "6fbc55ef1dd836295a5e723492ce6285b832b7a5ff32c751bc6ed9c0fa8ea7e5"},
	} {
		ref := newFullCube(randomGrid(c.l, c.seed), c.pad)
		h := sha256.New()
		var b [16]byte
		for _, v := range ref.data {
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
			h.Write(b[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.golden {
			t.Errorf("l=%d pad=%d: full cube hash %s, want %s", c.l, c.pad, got, c.golden)
		}
	}
}

// TestHalfSpectrumMatchesFullCube holds every read of the half
// spectrum — At on every lattice point, Sample, the Sampler's At,
// SampleCut and SampleCutScore's cut, trilinear and nearest — to the full cube
// it replaced, for odd and even l at pad 1 and pad 2. They agree bit
// for bit, with one pinned exception: on an even lattice a mirrored
// point (z > L/2) with x or y on the Nyquist index L/2 is the
// conjugate of a coefficient ramped by that index's own factor
// (ramp[L/2], which is not real to rounding), where the full cube
// ramped the conjugate by the same factor, so the two differ by
// ≈ 1e-14 relative. Exactly (2L−1)(L/2−1) points differ, all of them
// there. A read touches one only within one lattice step of the x or y
// Nyquist index; the refiner's default band, of radius 0.4·SrcL,
// reaches 0.4·L, more than a step inside it for L > 10 — so every cut
// the refiner takes is the full cube's bit for bit (the band case
// below, with zero inexact reads).
func TestHalfSpectrumMatchesFullCube(t *testing.T) {
	for _, c := range []struct {
		l, pad int
	}{{12, 1}, {13, 1}, {12, 2}, {13, 2}} {
		g := randomGrid(c.l, int64(100+c.l*c.pad))
		v := NewVolumeDFTPadded(g, c.pad)
		ref := newFullCube(g, c.pad)
		peak := ref.peak()
		L := v.L

		differ, want := 0, 0
		if L%2 == 0 {
			want = (2*L - 1) * (L/2 - 1)
		}
		for x := 0; x < L; x++ {
			for y := 0; y < L; y++ {
				for z := 0; z < L; z++ {
					got, full := v.At(x, y, z), ref.at(x, y, z)
					if sameBits(got, full) {
						continue
					}
					differ++
					if L%2 != 0 || z <= L/2 || (x != L/2 && y != L/2) || cdiff(got, full) > 1e-12*peak {
						t.Fatalf("l=%d pad=%d: At(%d,%d,%d) = %v, full cube %v", c.l, c.pad, x, y, z, got, full)
					}
				}
			}
		}
		if differ != want {
			t.Fatalf("l=%d pad=%d: %d lattice points differ from the full cube, want the %d mirrored Nyquist points", c.l, c.pad, differ, want)
		}

		rng := rand.New(rand.NewSource(int64(c.l + c.pad)))
		s := float64(c.pad)
		ny := float64(c.l)/2 + 1
		exact := 0
		for i := 0; i < 3000; i++ {
			f := geom.Vec3{X: (2*rng.Float64() - 1) * ny, Y: (2*rng.Float64() - 1) * ny, Z: (2*rng.Float64() - 1) * ny}
			near := nearNyquist(f.X*s, f.Y*s, L)
			for _, interp := range []Interpolation{Trilinear, Nearest} {
				sm := v.NewSampler(interp)
				if checkVsFull(t, "Sample", v.Sample(f, interp), ref.sample(f, interp), near, peak) {
					exact++
				}
				checkVsFull(t, "Sampler.At", sm.At(f.X, f.Y, f.Z), ref.read(f.X*s, f.Y*s, f.Z*s, interp == Nearest), near, peak)
			}
		}
		if exact < 1000 {
			t.Fatalf("l=%d pad=%d: only %d exact point reads", c.l, c.pad, exact)
		}

		// Cuts over the whole band r ≤ SrcL/2 and over the default
		// band r ≤ 0.4·SrcL, which must be exact throughout.
		orients := []geom.Euler{{}, {Theta: 90}, {Theta: 90, Phi: 90}, {Omega: 90}, {Theta: 180, Phi: 270, Omega: 90}}
		for i := 0; i < 30; i++ {
			orients = append(orients, geom.Euler{Theta: rng.Float64() * 180, Phi: rng.Float64() * 360, Omega: rng.Float64() * 360})
		}
		for _, rmax := range []float64{float64(c.l) / 2, 0.4 * float64(c.l)} {
			var fh, fk []float64
			for h := 0; float64(h) <= rmax; h++ {
				for k := -c.l / 2; k <= c.l/2; k++ {
					if (h > 0 || k >= 0) && math.Hypot(float64(h), float64(k)) <= rmax {
						fh, fk = append(fh, float64(h)), append(fk, float64(k))
					}
				}
			}
			cut := make([]complex128, len(fh))
			memo := NewCellMemo(len(fh))
			inexact := 0
			for _, interp := range []Interpolation{Trilinear, Nearest} {
				sm := v.NewSampler(interp)
				for _, o := range orients {
					rot := o.Matrix()
					xa, ya := rot.Col(0), rot.Col(1)
					for pass := 0; pass < 2; pass++ {
						if pass == 0 {
							sm.SampleCut(cut, fh, fk, xa, ya)
						} else {
							memoCut(&sm, cut, fh, fk, xa, ya, memo, haveAVX)
						}
						for i := range cut {
							p := xa.Scale(fh[i]).Add(ya.Scale(fk[i])).Scale(s)
							near := nearNyquist(p.X, p.Y, L)
							if !checkVsFull(t, "cut", cut[i], ref.read(p.X, p.Y, p.Z, interp == Nearest), near, peak) {
								inexact++
							}
						}
					}
				}
			}
			if rmax < float64(c.l)/2 && inexact != 0 {
				t.Fatalf("l=%d pad=%d: %d reads of the default band came near a Nyquist index", c.l, c.pad, inexact)
			}
		}
	}
}
