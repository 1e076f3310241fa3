package fourier

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
)

// squareBand returns the frequencies −r…r × −r…r in row order. At
// pad 1 its corners lie beyond Nyquist, so some points fall out of band.
func squareBand(r int) (fh, fk []float64) {
	for h := -r; h <= r; h++ {
		for k := -r; k <= r; k++ {
			fh, fk = append(fh, float64(h)), append(fk, float64(k))
		}
	}
	return fh, fk
}

// sameBits reports whether a and b are the same complex128 bit for bit.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// cellCounts reads fourier.sampler.cell_{hits,misses}, which count
// only while obs is enabled.
func cellCounts() (hits, misses int64) {
	return samplerCellHits.Value(), samplerCellMisses.Value()
}

// checkMemoCut samples one cut both ways and fails on the first
// coefficient whose bits differ. With a full-cube reference ref (nil:
// none) it also holds the memo's cut to the cut of the full spectrum,
// by checkVsFull's rule.
func checkMemoCut(t testing.TB, s *Sampler, memo *CellMemo, fh, fk []float64, n int, o geom.Euler, ref *fullCube, peak float64) {
	t.Helper()
	rot := o.Matrix()
	want, got := make([]complex128, n), make([]complex128, n)
	s.SampleCut(want, fh[:n], fk[:n], rot.Col(0), rot.Col(1))
	s.SampleCutMemo(got, fh[:n], fk[:n], rot.Col(0), rot.Col(1), memo)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("orient %v band %d (h,k)=(%g,%g): memo %v, SampleCut %v", o, i, fh[i], fk[i], got[i], want[i])
		}
		if ref != nil {
			p := rot.Col(0).Scale(fh[i]).Add(rot.Col(1).Scale(fk[i])).Scale(s.pad)
			checkVsFull(t, fmt.Sprintf("orient %v band %d", o, i), got[i], ref.read(p.X, p.Y, p.Z, false), nearNyquist(p.X, p.Y, s.l), peak)
		}
	}
}

// TestSampleCutMemoBitIdentical: reading corners through the cell memo
// gives SampleCut's cut bit for bit — on fine walks that keep slots in
// their cells, on jumps that move every slot, on band prefixes shorter
// than the memo, out of band (pad 1) and in nearest mode, which runs
// SampleCut and leaves the memo alone.
func TestSampleCutMemoBitIdentical(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	for _, tc := range []struct {
		name   string
		pad    int
		interp Interpolation
	}{
		{"trilinear-padded", 2, Trilinear},
		{"trilinear-unpadded", 1, Trilinear},
		{"nearest-padded", 2, Nearest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dft := randomVolumeDFT(16, tc.pad, 61)
			s := dft.NewSampler(tc.interp)
			fh, fk := squareBand(8)
			memo := NewCellMemo(len(fh))
			h0, m0 := cellCounts()
			rng := rand.New(rand.NewSource(17))
			for walk := 0; walk < 12; walk++ {
				o := geom.Euler{Theta: rng.Float64() * 180, Phi: rng.Float64() * 360, Omega: rng.Float64() * 360}
				step := []float64{0.002, 0.01, 0.1, 1}[walk%4]
				for j := 0; j < 30; j++ {
					o = o.Add(geom.Euler{
						Theta: float64(rng.Intn(5)-2) * step,
						Phi:   float64(rng.Intn(5)-2) * step,
						Omega: float64(rng.Intn(5)-2) * step,
					})
					n := len(fh)
					if j%3 == 1 {
						n = 1 + rng.Intn(len(fh))
					}
					checkMemoCut(t, &s, memo, fh, fk, n, o, nil, 0)
				}
			}
			h1, m1 := cellCounts()
			hits, misses := h1-h0, m1-m0
			if tc.interp == Nearest {
				if hits != 0 || misses != 0 {
					t.Fatalf("nearest mode counted %d hits, %d misses; it has no cells", hits, misses)
				}
				return
			}
			if hits == 0 || misses == 0 {
				t.Fatalf("%d hits, %d misses: the walks should both reuse and refresh cells", hits, misses)
			}
		})
	}
}

// TestCellMemoRepeatHitsEverySlot: the same cut twice misses nothing
// the second time, and the counters see each in-band sample once.
func TestCellMemoRepeatHitsEverySlot(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	s := randomVolumeDFT(16, 1, 67).NewSampler(Trilinear)
	fh, fk := squareBand(8)
	memo := NewCellMemo(len(fh))
	rot := geom.Euler{Theta: 37, Phi: 101, Omega: 250}.Matrix()
	cut := make([]complex128, len(fh))
	h0, m0 := cellCounts()
	s.SampleCutMemo(cut, fh, fk, rot.Col(0), rot.Col(1), memo)
	h1, m1 := cellCounts()
	s.SampleCutMemo(cut, fh, fk, rot.Col(0), rot.Col(1), memo)
	h2, m2 := cellCounts()
	h2, m2, h1, m1 = h2-h1, m2-m1, h1-h0, m1-m0
	if h1 != 0 || m2 != 0 || h2 != m1 {
		t.Fatalf("first cut %d hits / %d misses, repeat %d hits / %d misses; want 0/n then n/0", h1, m1, h2, m2)
	}
	if m1 >= int64(len(fh)) || m1 < int64(len(fh))/2 {
		t.Fatalf("%d in-band samples of %d: the square band's corners should fall out of band at pad 1", m1, len(fh))
	}
}

// FuzzSampleCutMemo drives the cell memo along arbitrary orientation
// walks — any start, any step, any band prefix — against SampleCut, bit
// for bit, and against the full-cube spectrum the half layout replaced
// (bit for bit away from the mirrored Nyquist points, see
// TestHalfSpectrumMatchesFullCube). The memo carries over from a random
// jump first, so every walk starts on slots holding another
// orientation's cells.
func FuzzSampleCutMemo(f *testing.F) {
	for _, seed := range []struct {
		theta, phi, omega, step float64
		n, steps                uint16
		pad                     bool
	}{
		{10, 20, 30, 0.01, 200, 20, true},
		{0, 0, 0, 0.002, 289, 8, true},
		{90, 90, 0, 1, 289, 5, false},
		{179.99, 359.9, 0.01, 0.1, 17, 40, false},
		{45, 45, 45, 0, 100, 3, true},
	} {
		f.Add(seed.theta, seed.phi, seed.omega, seed.step, seed.n, seed.steps, seed.pad)
	}
	fh, fk := squareBand(8)
	g := randomDensity(16, 71)
	samplers := [2]Sampler{NewVolumeDFTPadded(g, 1).NewSampler(Trilinear), NewVolumeDFTPadded(g, 2).NewSampler(Trilinear)}
	refs := [2]*fullCube{newFullCube(g, 1), newFullCube(g, 2)}
	peaks := [2]float64{refs[0].peak(), refs[1].peak()}
	f.Fuzz(func(t *testing.T, theta, phi, omega, step float64, n, steps uint16, pad bool) {
		for _, v := range []float64{theta, phi, omega, step} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				t.Skip("angles are finite and bounded")
			}
		}
		i := 0
		if pad {
			i = 1
		}
		s, ref, peak := &samplers[i], refs[i], peaks[i]
		nb := 1 + int(n)%len(fh)
		memo := NewCellMemo(len(fh))
		checkMemoCut(t, s, memo, fh, fk, len(fh), geom.Euler{Theta: theta + 73, Phi: phi - 41, Omega: omega + 17}, ref, peak)
		o := geom.Euler{Theta: theta, Phi: phi, Omega: omega}
		for j := 0; j <= int(steps)%64; j++ {
			checkMemoCut(t, s, memo, fh, fk, nb, o, ref, peak)
			d := float64(j%3 - 1)
			o = o.Add(geom.Euler{Theta: step, Phi: d * step, Omega: -step})
		}
	})
}

// BenchmarkSampleCutFine times one cut over a 48-pixel map's half band
// (2× padded spectrum) with and without the cell memo, on each step of
// DefaultSchedule. The walk follows the search's traffic: from eight
// starting orientations, a centre is cut, then seven of its lattice
// neighbours (each angle −1, 0 or +1 step), then the centre moves one
// step. hit-rate is the memo's over one pass of the walk.
func BenchmarkSampleCutFine(b *testing.B) {
	s := randomVolumeDFT(48, 2, 3).NewSampler(Trilinear)
	var fh, fk []float64
	const rmax = 19.2
	for h := 0; h <= 19; h++ {
		for k := -19; k <= 19; k++ {
			if (h > 0 || k >= 0) && math.Hypot(float64(h), float64(k)) <= rmax {
				fh, fk = append(fh, float64(h)), append(fk, float64(k))
			}
		}
	}
	for _, step := range []float64{1, 0.1, 0.01, 0.002} {
		rng := rand.New(rand.NewSource(1))
		neighbour := func(o geom.Euler) geom.Euler {
			return o.Add(geom.Euler{
				Theta: float64(rng.Intn(3)-1) * step,
				Phi:   float64(rng.Intn(3)-1) * step,
				Omega: float64(rng.Intn(3)-1) * step,
			})
		}
		var walk []geom.Euler
		for v := 0; v < 8; v++ {
			o := geom.Euler{Theta: rng.Float64() * 180, Phi: rng.Float64() * 360, Omega: rng.Float64() * 360}
			for i := 0; i < 64; i++ {
				if i%8 == 0 {
					walk = append(walk, o)
					o = neighbour(o)
				} else {
					walk = append(walk, neighbour(o))
				}
			}
		}
		cut := make([]complex128, len(fh))
		for _, memo := range []bool{false, true} {
			name := "plain"
			if memo {
				name = "memo"
			}
			b.Run(fmt.Sprintf("%s/step=%g", name, step), func(b *testing.B) {
				cells := NewCellMemo(len(fh))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rot := walk[i%len(walk)].Matrix()
					if memo {
						s.SampleCutMemo(cut, fh, fk, rot.Col(0), rot.Col(1), cells)
					} else {
						s.SampleCut(cut, fh, fk, rot.Col(0), rot.Col(1))
					}
				}
				b.StopTimer()
				if memo {
					defer obs.SetEnabled(obs.SetEnabled(true))
					h0, m0 := cellCounts()
					for _, o := range walk {
						rot := o.Matrix()
						s.SampleCutMemo(cut, fh, fk, rot.Col(0), rot.Col(1), cells)
					}
					h1, m1 := cellCounts()
					b.ReportMetric(float64(h1-h0)/float64(h1-h0+m1-m0), "hit-rate")
				}
			})
		}
	}
}
