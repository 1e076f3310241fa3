package fourier

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
)

// squareBand returns the frequencies −r…r × −r…r sorted by radius,
// ties by h and then k, as the matcher sorts its band. On a 2r-pixel
// map the slots inside the disc of radius r form the in-Nyquist prefix
// (InNyquist), and the Nyquist ring and the square's corners follow it
// for the Go loop; at pad 1 the corners fall out of band.
func squareBand(r int) (fh, fk []float64) {
	type slot struct{ h, k float64 }
	var band []slot
	for h := -r; h <= r; h++ {
		for k := -r; k <= r; k++ {
			band = append(band, slot{float64(h), float64(k)})
		}
	}
	sort.Slice(band, func(a, b int) bool {
		ra, rb := math.Hypot(band[a].h, band[a].k), math.Hypot(band[b].h, band[b].k)
		if ra != rb {
			return ra < rb
		}
		if band[a].h != band[b].h {
			return band[a].h < band[b].h
		}
		return band[a].k < band[b].k
	})
	for _, e := range band {
		fh, fk = append(fh, e.h), append(fk, e.k)
	}
	return fh, fk
}

// sameBits reports whether a and b are the same complex128 bit for bit.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// scoreRef is the oracle of SampleCutScore, written out from the
// matcher's weighting of a sampled cut and its least-squares loop over
// the cut before the sampler scored cuts: it weights cut by refW (nil:
// none) in place, then returns the least-squares sums over it.
func scoreRef(cut, vals []complex128, wt, refW []float64) (ec, cross float64) {
	if refW != nil {
		for i, c := range cut {
			w := refW[i]
			cut[i] = complex(real(c)*w, imag(c)*w)
		}
	}
	for i, c := range cut {
		fv := vals[i]
		w := wt[i]
		cr, ci := real(c), imag(c)
		ec += w * (cr*cr + ci*ci)
		cross += w * (real(fv)*cr + imag(fv)*ci)
	}
	return ec, cross
}

// scoreInputs draws a view to score cuts against over n slots: band
// values with −0 and subnormal parts among them, positive band weights
// and cut weights in [0, 1) with exact zeros among them, as |CTF| has.
func scoreInputs(rng *rand.Rand, n int) (vals []complex128, wt, refW []float64) {
	vals, wt, refW = make([]complex128, n), make([]float64, n), make([]float64, n)
	part := func() float64 {
		switch rng.Intn(16) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return rng.NormFloat64() * 1e-310
		}
		return rng.NormFloat64()
	}
	for i := range vals {
		vals[i] = complex(part(), part())
		wt[i] = 2 * rng.Float64()
		if rng.Intn(8) > 0 {
			refW[i] = rng.Float64()
		}
	}
	return vals, wt, refW
}

// sameSums reports whether two pairs of sums are the same bit for bit.
func sameSums(ec1, cross1, ec2, cross2 float64) bool {
	return math.Float64bits(ec1) == math.Float64bits(ec2) && math.Float64bits(cross1) == math.Float64bits(cross2)
}

// unscored holds the zero band values and weights memoCut scores
// against, grown to the longest cut seen.
var unscored struct {
	vals []complex128
	wt   []float64
}

// memoCut is the memo's cut alone: SampleCutScore's pass over the
// band's whole in-Nyquist prefix, through the vector passes only when
// vector is set, scored against zero band values and weights and
// without cut weights, so dst is the cut SampleCut writes. It is how
// the tests reach the memo's cut.
func memoCut(s *Sampler, dst []complex128, fh, fk []float64, xa, ya geom.Vec3, memo *CellMemo, vector bool) {
	if len(unscored.wt) < len(dst) {
		unscored.vals, unscored.wt = make([]complex128, len(dst)), make([]float64, len(dst))
	}
	s.sampleCutMemo(dst, fh, fk, s.InNyquist(fh[:len(dst)], fk), xa, ya, memo, vector, unscored.vals[:len(dst)], unscored.wt, nil)
}

// cellCounts reads the memo's cell hit and miss tallies.
func cellCounts(memo *CellMemo) (hits, misses int64) {
	return memo.hits, memo.misses
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
	memoCut(s, got, fh[:n], fk[:n], rot.Col(0), rot.Col(1), memo, haveAVX)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("orient %v band %d (h,k)=(%g,%g): memo %v, SampleCut %v", o, i, fh[i], fk[i], got[i], want[i])
		}
		if ref != nil {
			p := rot.Col(0).Scale(fh[i]).Add(rot.Col(1).Scale(fk[i])).Scale(s.pad)
			checkVsFull(t, fmt.Sprintf("orient %v band %d", o, i), got[i], ref.read(p.X, p.Y, p.Z, s.nearest), nearNyquist(p.X, p.Y, s.l), peak)
		}
	}
}

// TestSampleCutMemoBitIdentical: reading corners through the cell memo
// gives SampleCut's cut bit for bit — on fine walks that keep slots in
// their cells, on jumps that move every slot, on band prefixes shorter
// than the memo, out of band (pad 1) and in nearest mode, which keys
// the memo by the same cells and so both reuses and refreshes them.
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
			h0, m0 := cellCounts(memo)
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
			h1, m1 := cellCounts(memo)
			hits, misses := h1-h0, m1-m0
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
	h0, m0 := cellCounts(memo)
	memoCut(&s, cut, fh, fk, rot.Col(0), rot.Col(1), memo, haveAVX)
	h1, m1 := cellCounts(memo)
	memoCut(&s, cut, fh, fk, rot.Col(0), rot.Col(1), memo, haveAVX)
	h2, m2 := cellCounts(memo)
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

// FuzzSampleCutScore drives SampleCutScore along arbitrary orientation
// walks, with and without cut weights, in both interpolations, against
// plain SampleCut followed by scoreRef: the weighted cut and both sums
// must agree bit for bit at every step, and a distance-only call (nil
// dst) must return the same sums. The prefix axis picks how many
// leading slots are declared in Nyquist, anywhere from none to the
// band's whole in-Nyquist prefix, so on amd64 with AVX the vector
// passes cover that many slots, a last partial group masked, and the Go
// loop the rest, the Nyquist ring and the corners included; every
// split must give the same bits. This holds the fused blend pass,
// including its slot-order sums across groups, through the masked tail
// and into the Go loop, to the scalar loop's sums, and in the
// nearest-neighbour mode the fractions snapped between locate and blend
// to SampleCut's snapped offsets.
func FuzzSampleCutScore(f *testing.F) {
	for _, seed := range []struct {
		theta, phi, omega, step float64
		n, steps, prefix        uint16
		pad, weighted, nearest  bool
	}{
		{10, 20, 30, 0.01, 200, 20, 65535, true, false, false},
		{0, 0, 0, 0.002, 289, 8, 65535, true, true, false},
		{90, 90, 0, 1, 289, 5, 65535, false, true, false},
		{179.99, 359.9, 0.01, 0.1, 17, 40, 65535, false, false, false},
		{45, 45, 45, 0, 6, 3, 65535, true, true, false},
		{10, 20, 30, 0.01, 200, 20, 65535, true, true, true},
		{90, 90, 0, 1, 289, 5, 65535, false, false, true},
		{179.99, 359.9, 0.01, 0.1, 17, 40, 65535, false, true, true},
		{33, 71, 5, 0.1, 289, 10, 0, true, true, false},
		{33, 71, 5, 0.1, 289, 10, 101, false, true, false},
		{12, 250, 300, 0.01, 150, 10, 98, true, false, true},
		{12, 250, 300, 1, 196, 10, 195, false, true, false},
	} {
		f.Add(seed.theta, seed.phi, seed.omega, seed.step, seed.n, seed.steps, seed.prefix, seed.pad, seed.weighted, seed.nearest)
	}
	fh, fk := squareBand(8)
	g := randomDensity(16, 73)
	var samplers [2][2]Sampler // by pad 1, 2 and by trilinear, nearest
	for i, pad := range []int{1, 2} {
		v := NewVolumeDFTPadded(g, pad)
		samplers[i] = [2]Sampler{v.NewSampler(Trilinear), v.NewSampler(Nearest)}
	}
	inNyquist := samplers[0][0].InNyquist(fh, fk)
	vals, wt, refW := scoreInputs(rand.New(rand.NewSource(79)), len(fh))
	f.Fuzz(func(t *testing.T, theta, phi, omega, step float64, n, steps, prefix uint16, pad, weighted, nearest bool) {
		for _, v := range []float64{theta, phi, omega, step} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				t.Skip("angles are finite and bounded")
			}
		}
		var p, q int
		if pad {
			p = 1
		}
		if nearest {
			q = 1
		}
		s := &samplers[p][q]
		w := refW
		if !weighted {
			w = nil
		}
		nb := int(n) % (len(fh) + 1)
		pre := min(int(prefix), inNyquist)
		memo := NewCellMemo(len(fh))
		got, want := make([]complex128, len(fh)), make([]complex128, len(fh))
		check := func(o geom.Euler, nb int) {
			t.Helper()
			rot := o.Matrix()
			ec, cross := s.SampleCutScore(got[:nb], fh, fk, pre, rot.Col(0), rot.Col(1), memo, vals[:nb], wt, w)
			s.SampleCut(want[:nb], fh, fk, rot.Col(0), rot.Col(1))
			wantEC, wantCross := scoreRef(want[:nb], vals, wt, w)
			for i := range nb {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("orient %v n %d prefix %d slot %d: fused cut %v, SampleCut %v", o, nb, pre, i, got[i], want[i])
				}
			}
			if !sameSums(ec, cross, wantEC, wantCross) {
				t.Fatalf("orient %v n %d prefix %d: fused sums (%v, %v), SampleCut + scoreRef (%v, %v)", o, nb, pre, ec, cross, wantEC, wantCross)
			}
			ec, cross = s.SampleCutScore(nil, fh, fk, pre, rot.Col(0), rot.Col(1), memo, vals[:nb], wt, w)
			if !sameSums(ec, cross, wantEC, wantCross) {
				t.Fatalf("orient %v n %d prefix %d: distance-only sums (%v, %v), SampleCut + scoreRef (%v, %v)", o, nb, pre, ec, cross, wantEC, wantCross)
			}
		}
		check(geom.Euler{Theta: theta + 73, Phi: phi - 41, Omega: omega + 17}, len(fh))
		o := geom.Euler{Theta: theta, Phi: phi, Omega: omega}
		for j := 0; j <= int(steps)%64; j++ {
			check(o, nb)
			d := float64(j%3 - 1)
			o = o.Add(geom.Euler{Theta: step, Phi: d * step, Omega: -step})
		}
	})
}

// fineBand is a 48-pixel map's half band out to radius 19.2, in row
// order: BenchmarkSampleCutFine's band.
func fineBand() (fh, fk []float64) {
	const rmax = 19.2
	for h := 0; h <= 19; h++ {
		for k := -19; k <= 19; k++ {
			if (h > 0 || k >= 0) && math.Hypot(float64(h), float64(k)) <= rmax {
				fh, fk = append(fh, float64(h)), append(fk, float64(k))
			}
		}
	}
	return fh, fk
}

// fineWalk is BenchmarkSampleCutFine's walk at one lattice step. It
// follows the search's traffic: from eight starting orientations, a
// centre is cut, then seven of its lattice neighbours (each angle −1, 0
// or +1 step), then the centre moves one step.
func fineWalk(step float64) []geom.Euler {
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
	return walk
}

// fineSteps are the lattice steps of DefaultSchedule.
var fineSteps = []float64{1, 0.1, 0.01, 0.002}

// TestSampleCutFineCountsPinned: one pass of BenchmarkSampleCutFine's
// walk on a fresh memo, at each step, publishes exactly the sampler
// counts recorded at dc261d1, when the memo's cut was one scalar loop
// counting into the process counters cut by cut — through the vector
// passes where this build has them, and through the Go loop alone.
func TestSampleCutFineCountsPinned(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	s := randomVolumeDFT(48, 2, 3).NewSampler(Trilinear)
	fh, fk := fineBand()
	cut := make([]complex128, len(fh))
	want := map[float64][4]int64{ // cut_calls, cut_coeffs, cell_hits, cell_misses
		1:     {512, 295424, 109929, 185495},
		0.1:   {512, 295424, 263828, 31596},
		0.01:  {512, 295424, 288310, 7114},
		0.002: {512, 295424, 290343, 5081},
	}
	counters := []*obs.Counter{samplerCutCalls, samplerCutCoeffs, samplerCellHits, samplerCellMisses}
	for _, vector := range []bool{haveAVX, false} {
		for _, step := range fineSteps {
			memo := NewCellMemo(len(fh))
			var before, got [4]int64
			for i, c := range counters {
				before[i] = c.Value()
			}
			for _, o := range fineWalk(step) {
				rot := o.Matrix()
				memoCut(&s, cut, fh, fk, rot.Col(0), rot.Col(1), memo, vector)
			}
			memo.Publish()
			for i, c := range counters {
				got[i] = c.Value() - before[i]
			}
			if got != want[step] {
				t.Errorf("vector passes %v, step %g: counts %v, want %v", vector, step, got, want[step])
			}
		}
	}
}

// smallBand is a 16-pixel map's half band out to radius 6.4 (RMap at
// 80 % of Nyquist), in row order: the 65 slots a jobs_small refinement
// cuts.
func smallBand() (fh, fk []float64) {
	const rmax = 6.4
	for h := 0; h <= 6; h++ {
		for k := -6; k <= 6; k++ {
			if (h > 0 || k >= 0) && math.Hypot(float64(h), float64(k)) <= rmax {
				fh, fk = append(fh, float64(h)), append(fk, float64(k))
			}
		}
	}
	return fh, fk
}

// BenchmarkSampleCutFine times one cut on fineWalk at each step of
// DefaultSchedule, over a 48-pixel map's half band (577 slots) and, as
// l16/…, over a 16-pixel map's (65 slots, a jobs_small refinement's
// cut), both on a 2× padded spectrum: plain SampleCut; a cut with its
// least-squares sums through SampleCutScore as this build runs it
// (score: on amd64 with AVX the vector passes over the band's whole
// in-Nyquist prefix, which is every slot here, the last partial group
// masked); the same as a distance-only call that does not store the
// cut (dist: what every search candidate costs); and the Go loop alone
// (score-go, what arm64 and purego builds run). hit-rate is the memo's
// over one pass of the walk.
func BenchmarkSampleCutFine(b *testing.B) {
	for _, band := range []struct {
		name  string
		l     int
		slots func() (fh, fk []float64)
	}{
		{"", 48, fineBand},
		{"l16/", 16, smallBand},
	} {
		s := randomVolumeDFT(band.l, 2, 3).NewSampler(Trilinear)
		fh, fk := band.slots()
		inNyquist := s.InNyquist(fh, fk)
		cut := make([]complex128, len(fh))
		// A view's values and weights without scoreInputs' subnormals,
		// whose microcode assists would swamp the timing.
		rng := rand.New(rand.NewSource(5))
		vals, wt := make([]complex128, len(fh)), make([]float64, len(fh))
		for i := range vals {
			vals[i], wt[i] = complex(rng.NormFloat64(), rng.NormFloat64()), 2
		}
		for _, step := range fineSteps {
			walk := fineWalk(step)
			for _, mode := range []string{"plain", "score", "dist", "score-go"} {
				vector := haveAVX && mode != "score-go"
				dst := cut
				if mode == "dist" {
					dst = nil
				}
				b.Run(fmt.Sprintf("%s%s/step=%g", band.name, mode, step), func(b *testing.B) {
					cells := NewCellMemo(len(fh))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						rot := walk[i%len(walk)].Matrix()
						if mode == "plain" {
							s.SampleCut(cut, fh, fk, rot.Col(0), rot.Col(1))
						} else {
							s.sampleCutMemo(dst, fh, fk, inNyquist, rot.Col(0), rot.Col(1), cells, vector, vals, wt, nil)
						}
					}
					b.StopTimer()
					if mode != "plain" {
						h0, m0 := cellCounts(cells)
						for _, o := range walk {
							rot := o.Matrix()
							memoCut(&s, cut, fh, fk, rot.Col(0), rot.Col(1), cells, vector)
						}
						h1, m1 := cellCounts(cells)
						b.ReportMetric(float64(h1-h0)/float64(h1-h0+m1-m0), "hit-rate")
					}
				})
			}
		}
	}
}
