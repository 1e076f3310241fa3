//go:build !purego

package fourier

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// cloneMemo is a deep copy of m.
func cloneMemo(m *CellMemo) *CellMemo {
	c := *m
	c.keys = append([][3][4]int32(nil), m.keys...)
	c.corners = append([][16][4]float64(nil), m.corners...)
	c.frac = append([][3][4]float64(nil), m.frac...)
	c.cand = append([][3][4]int32(nil), m.cand...)
	c.mask = append([]uint8(nil), m.mask...)
	return &c
}

// locateGroupsRef is the locate pass written out lane by lane from
// SampleCut's arithmetic without its band test: the oracle
// locateGroupsAVX is held to. A spare lane of a last partial group is
// positioned at h = k = 0 and never marked missed.
func locateGroupsRef(fh, fk []float64, f *cutFrame, keys, cand [][3][4]int32, frac [][3][4]float64, mask []uint8) {
	for g := range mask {
		var mk uint8
		for j := range 4 {
			i := 4*g + j
			var h, k float64
			if i < len(fh) {
				h, k = fh[i], fk[i]
			}
			x := (f.xx*h + f.yx*k) * f.pad
			y := (f.xy*h + f.yy*k) * f.pad
			z := (f.xz*h + f.yz*k) * f.pad
			xf, yf, zf := math.Floor(x), math.Floor(y), math.Floor(z)
			frac[g][0][j], frac[g][1][j], frac[g][2][j] = x-xf, y-yf, z-zf
			cand[g][0][j], cand[g][1][j], cand[g][2][j] = int32(xf), int32(yf), int32(zf)
			if i < len(fh) && (cand[g][0][j] != keys[g][0][j] || cand[g][1][j] != keys[g][1][j] || cand[g][2][j] != keys[g][2][j]) {
				mk |= 1 << j
			}
		}
		mask[g] = mk
	}
}

// blendGroupsRef blends every slot of dst through blend itself, on the
// lane's corners copied into gather's order: the oracle blendGroupsAVX
// is held to.
func blendGroupsRef(dst []complex128, frac [][3][4]float64, corners [][16][4]float64) {
	for i := range dst {
		g, j := i/4, i%4
		var c [8]complex128
		for q := range c {
			c[q] = complex(corners[g][q][j], corners[g][8+q][j])
		}
		dst[i] = blend(&c, frac[g][0][j], frac[g][1][j], frac[g][2][j])
	}
}

// leafCoverage counts what TestCutLeavesAVXMatchGo has seen.
type leafCoverage struct {
	tails   [4]int // located prefixes by length mod 4
	misses  int    // located lanes that missed
	zLow    int    // located lanes whose cell straddles z = 0 (z0 = −1)
	negZero int    // located lanes positioned at −0 on some axis
	oob     int    // whole-cut slots out of band, all past the prefix
	zTop    int    // whole-cut slots whose cell straddles the top of the half (z0 = l/2)
}

// checkLocateParity runs locateGroupsAVX and locateGroupsRef over the
// slots of (fh, fk) in frame f from the same memo state and requires
// equal masks and, on every lane, spare lanes included, equal candidate
// cells and fractions bit for bit. It returns the reference's memo.
func checkLocateParity(t *testing.T, name string, fh, fk []float64, f *cutFrame, m *CellMemo, cov *leafCoverage) *CellMemo {
	t.Helper()
	ng := (len(fh) + 3) / 4
	a, b := cloneMemo(m), cloneMemo(m)
	locateGroupsRef(fh, fk, f, a.keys[:ng], a.cand[:ng], a.frac[:ng], a.mask[:ng])
	locateGroupsAVX(fh, fk, f, b.keys[:ng], b.cand[:ng], b.frac[:ng], b.mask[:ng])
	cov.tails[len(fh)%4]++
	for g := range ng {
		if a.mask[g] != b.mask[g] {
			t.Fatalf("%s n %d group %d: mask reference %04b, AVX %04b", name, len(fh), g, a.mask[g], b.mask[g])
		}
		for j := range 4 {
			for ax := range 3 {
				if a.cand[g][ax][j] != b.cand[g][ax][j] || math.Float64bits(a.frac[g][ax][j]) != math.Float64bits(b.frac[g][ax][j]) {
					t.Fatalf("%s n %d group %d lane %d axis %d: reference cell %d frac %v, AVX cell %d frac %v",
						name, len(fh), g, j, ax, a.cand[g][ax][j], a.frac[g][ax][j], b.cand[g][ax][j], b.frac[g][ax][j])
				}
			}
			i := 4*g + j
			if i >= len(fh) {
				continue
			}
			if a.mask[g]&(1<<j) != 0 {
				cov.misses++
			}
			if a.cand[g][2][j] == -1 {
				cov.zLow++
			}
			h, k := fh[i], fk[i]
			for _, p := range [3]float64{(f.xx*h + f.yx*k) * f.pad, (f.xy*h + f.yy*k) * f.pad, (f.xz*h + f.yz*k) * f.pad} {
				if p == 0 && math.Signbit(p) {
					cov.negZero++
				}
			}
		}
	}
	return a
}

// sentinel is what a test writes past the end of a cut to see that no
// pass stores there.
var sentinel = complex(math.Float64frombits(0x7ff8dead00000001), -1234.5)

// checkBlendParity runs blendGroupsAVX and blendGroupsRef over the same
// fractions and corners for n slots and requires the same cut bit for
// bit (the pass scores it against zero values and weights, as memoCut),
// and no store past slot n.
func checkBlendParity(t *testing.T, name string, m *CellMemo, n int) {
	t.Helper()
	ng := (n + 3) / 4
	da, db := make([]complex128, n), make([]complex128, n+4)
	for i := range db {
		db[i] = sentinel
	}
	blendGroupsRef(da, m.frac[:ng], m.corners[:ng])
	blendGroupsAVX(db[:n], m.frac[:ng], m.corners[:ng], make([]complex128, n), make([]float64, n), nil)
	for i := range da {
		if !sameBits(da[i], db[i]) {
			t.Fatalf("%s n %d slot %d: blend %v, AVX %v", name, n, i, da[i], db[i])
		}
	}
	for i := n; i < len(db); i++ {
		if !sameBits(db[i], sentinel) {
			t.Fatalf("%s n %d: the blend pass stored %v past the cut, at slot %d", name, n, db[i], i)
		}
	}
}

// frameOf is the cut frame of image axes x̂, ŷ on sampler s.
func frameOf(s *Sampler, xa, ya geom.Vec3) cutFrame {
	return cutFrame{xa.X, ya.X, xa.Y, ya.Y, xa.Z, ya.Z, s.pad, s.ny, -s.ny}
}

// axesOf are the image axes of frame f.
func axesOf(f *cutFrame) (xa, ya geom.Vec3) {
	return geom.Vec3{X: f.xx, Y: f.xy, Z: f.xz}, geom.Vec3{X: f.yx, Y: f.yy, Z: f.yz}
}

// countGoLoopSlots adds to cov the slots of a cut of n slots in frame f
// that fall out of band, and the in-band ones whose cell straddles the
// top of the half: both lie past the in-Nyquist prefix, in the Go loop.
func countGoLoopSlots(s *Sampler, fh, fk []float64, f *cutFrame, n int, cov *leafCoverage) {
	for i := range n {
		h, k := fh[i], fk[i]
		x := (f.xx*h + f.yx*k) * f.pad
		y := (f.xy*h + f.yy*k) * f.pad
		z := (f.xz*h + f.yz*k) * f.pad
		switch {
		case x < f.negNy || x > f.ny || y < f.negNy || y > f.ny || z < f.negNy || z > f.ny:
			cov.oob++
		case int(math.Floor(z)) == s.l/2:
			cov.zTop++
		}
	}
}

// TestCutLeavesAVXMatchGo holds the AVX passes to their references in
// Go bit for bit — masks, candidate cells and fractions on every lane,
// spare lanes of a last partial group included, and cuts, with nothing
// stored past the cut — over in-Nyquist prefixes of every length mod 4,
// on cells straddling z = 0, on an empty memo and on positions at −0;
// the locate pass also at NaN and ±Inf positions, as arithmetic. It
// holds whole cuts with and without the vector passes to each other,
// memo and tallies included, and to SampleCut, on bands whose Nyquist
// ring and corners take the Go loop: out of band (pad 1, the square
// band's corners) and on cells straddling the top of the half, which
// only a slot on Nyquist reaches.
func TestCutLeavesAVXMatchGo(t *testing.T) {
	if !haveAVX {
		t.Skip("the CPU or OS lacks AVX; SampleCutScore runs the Go loop alone")
	}
	var cov leafCoverage
	rng := rand.New(rand.NewSource(43))
	fh, fk := squareBand(8)
	for _, pad := range []int{1, 2} {
		s := randomVolumeDFT(16, pad, 89).NewSampler(Trilinear)
		p := s.InNyquist(fh, fk)
		if p == 0 || p == len(fh) {
			t.Fatalf("in-Nyquist prefix %d of %d slots: the band should have a Nyquist ring past it", p, len(fh))
		}
		var frames []cutFrame
		for range 40 {
			rot := geom.Euler{Theta: rng.Float64() * 180, Phi: rng.Float64() * 360, Omega: rng.Float64() * 360}.Matrix()
			frames = append(frames, frameOf(&s, rot.Col(0), rot.Col(1)))
		}
		// ŷ along z: z = k·pad lands on whole cells, so cells straddle
		// z = 0 (z0 = −1) and, at k·pad = ny on the Nyquist ring, the top
		// of the half (z0 = l/2); negative axes put (0, 0) at −0.
		frames = append(frames,
			frameOf(&s, geom.Vec3{X: 1}, geom.Vec3{Z: 1}),
			frameOf(&s, geom.Vec3{X: -1}, geom.Vec3{Z: -1}),
			frameOf(&s, geom.Vec3{X: -0.6, Y: -0.8}, geom.Vec3{Y: -0.6, Z: -0.8}),
			frameOf(&s, geom.Vec3{X: 0.5, Y: 0.5, Z: -math.Sqrt(0.5)}, geom.Vec3{X: -0.5, Y: 0.5, Z: 0.25}),
			// Axes a hair longer than a rotation's, within rowsBounded's
			// tolerance: a slot on the Nyquist ring lands just past
			// Nyquist, which InNyquist's margin keeps out of the passes.
			frameOf(&s, geom.Vec3{X: 1 + 4e-14}, geom.Vec3{Y: -1 - 4e-14}))
		m := NewCellMemo(len(fh))
		for i, f := range frames {
			name := fmt.Sprintf("pad %d frame %d", pad, i)
			if !f.rowsBounded() {
				t.Fatalf("%s: the axes are not a rotation's", name)
			}
			for _, n := range []int{p, p - 1, p - 2, p - 3, 6, 1} {
				a := checkLocateParity(t, name, fh[:n], fk[:n], &f, m, &cov)
				// Random corners, −0 and subnormals among them, under the
				// fractions locate wrote.
				for g := range a.corners {
					for q := range a.corners[g] {
						for j := range 4 {
							a.corners[g][q][j] = cornerValue(rng)
						}
					}
				}
				checkBlendParity(t, name, a, n)
			}

			// Whole cuts with and without the vector passes from the
			// same memo: the prefix alone, short of it and past it.
			for _, n := range []int{len(fh), len(fh) - 1, len(fh) - 2, len(fh) - 3, p + 1, p, p - 1, 5, 1, 0} {
				ma, mb := cloneMemo(m), cloneMemo(m)
				ca, cb, want := make([]complex128, n), make([]complex128, n), make([]complex128, n)
				xa, ya := axesOf(&f)
				memoCut(&s, ca, fh[:n], fk[:n], xa, ya, ma, false)
				memoCut(&s, cb, fh[:n], fk[:n], xa, ya, mb, true)
				s.SampleCut(want, fh[:n], fk[:n], xa, ya)
				for i := range want {
					if !sameBits(ca[i], want[i]) || !sameBits(cb[i], want[i]) {
						t.Fatalf("%s n %d slot %d: Go loop %v, AVX passes %v, SampleCut %v", name, n, i, ca[i], cb[i], want[i])
					}
				}
				for g := range ma.keys {
					if ma.keys[g] != mb.keys[g] || ma.corners[g] != mb.corners[g] {
						t.Fatalf("%s n %d group %d: the memos differ after the cut", name, n, g)
					}
				}
				if ma.hits != mb.hits || ma.misses != mb.misses || ma.coeffs-m.coeffs != int64(n) || ma.calls-m.calls != 1 {
					t.Fatalf("%s n %d: tallies Go loop %d/%d, AVX passes %d/%d (hits/misses)", name, n, ma.hits, ma.misses, mb.hits, mb.misses)
				}
				countGoLoopSlots(&s, fh, fk, &f, n, &cov)
			}
			// Carry the memo on, so later frames start on held cells.
			xa, ya := axesOf(&f)
			memoCut(&s, make([]complex128, len(fh)), fh, fk, xa, ya, m, true)
		}

		// Non-finite positions: the locate pass's arithmetic on them.
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			f := frameOf(&s, geom.Vec3{X: v, Y: 0.5}, geom.Vec3{Y: 0.5, Z: 1})
			checkLocateParity(t, "non-finite frame", fh[:p], fk[:p], &f, NewCellMemo(len(fh)), &cov)
		}
	}

	// An empty memo: nothing to locate, gather or blend.
	s := randomVolumeDFT(16, 2, 89).NewSampler(Trilinear)
	empty := NewCellMemo(0)
	memoCut(&s, nil, nil, nil, geom.Vec3{X: 1}, geom.Vec3{Y: 1}, empty, true)
	if empty.calls != 1 || empty.coeffs != 0 || empty.hits != 0 || empty.misses != 0 {
		t.Fatalf("empty cut tallied %+v", *empty)
	}

	t.Logf("coverage: located prefixes by length mod 4 %v, %d misses, %d cells at z0 = −1, %d positions at −0; Go loop: %d slots out of band, %d cells at the top of the half",
		cov.tails, cov.misses, cov.zLow, cov.negZero, cov.oob, cov.zTop)
	if cov.tails[0] == 0 || cov.tails[1] == 0 || cov.tails[2] == 0 || cov.tails[3] == 0 || cov.misses == 0 || cov.zLow == 0 || cov.negZero == 0 || cov.oob == 0 || cov.zTop == 0 {
		t.Fatal("the cases missed a class they are meant to cover")
	}
}

// scoreCoverage counts what TestCutScoreAVXMatchGo has seen.
type scoreCoverage struct {
	tails       [4][2]int // vector prefixes by length mod 4, without and with cut weights
	groups      [3]int    // vector prefixes of 0, 1 and more groups
	goLoop      int       // whole cuts with slots past the vector prefix
	oob         int       // slots out of band
	nan, inf    int       // slots at a NaN position, at an infinite position
	negZero     int       // −0 corners blended
	subnormal   int       // subnormal corners blended
	planted     int       // spare lanes with NaN or ±Inf in their corners, band values and weights
	leafNaNFrac int       // blend-pass lanes scored at a NaN fraction
	nearest     int       // whole cuts in the nearest-neighbour mode
}

// keyEvery keys every in-band slot of m to the cell its position in
// frame f floors to, with random corners (−0 and subnormals among
// them), so the next cut in that frame hits on every slot. It is how a
// cut at NaN positions is run whole: such a slot's cell, keyed by the
// conversion of NaN, has no lattice corners to gather.
func keyEvery(m *CellMemo, fh, fk []float64, f *cutFrame, rng *rand.Rand) {
	for i := range fh {
		h, k := fh[i], fk[i]
		x := (f.xx*h + f.yx*k) * f.pad
		y := (f.xy*h + f.yy*k) * f.pad
		z := (f.xz*h + f.yz*k) * f.pad
		if x < f.negNy || x > f.ny || y < f.negNy || y > f.ny || z < f.negNy || z > f.ny {
			continue
		}
		g, j := i/4, i%4
		m.keys[g][0][j], m.keys[g][1][j], m.keys[g][2][j] = int32(math.Floor(x)), int32(math.Floor(y)), int32(math.Floor(z))
		for q := range m.corners[g] {
			m.corners[g][q][j] = cornerValue(rng)
		}
	}
}

// cornerValue is a random corner part: a normal deviate, or −0 or a
// subnormal one time in sixteen each.
func cornerValue(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return rng.NormFloat64() * 1e-310
	}
	return rng.NormFloat64()
}

// countSlots adds to cov the out-of-band, NaN and infinite positions
// among the first n slots of a cut in frame f, and the −0 and subnormal
// corners m holds for its in-band slots.
func countSlots(m *CellMemo, fh, fk []float64, f *cutFrame, n int, cov *scoreCoverage) {
	for i := range n {
		h, k := fh[i], fk[i]
		x := (f.xx*h + f.yx*k) * f.pad
		y := (f.xy*h + f.yy*k) * f.pad
		z := (f.xz*h + f.yz*k) * f.pad
		if x < f.negNy || x > f.ny || y < f.negNy || y > f.ny || z < f.negNy || z > f.ny {
			cov.oob++
			if math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsInf(z, 0) {
				cov.inf++
			}
			continue
		}
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) {
			cov.nan++
		}
		for _, v := range m.corners[i/4] {
			switch {
			case v[i%4] == 0 && math.Signbit(v[i%4]):
				cov.negZero++
			case v[i%4] != 0 && math.Abs(v[i%4]) < 0x1p-1022:
				cov.subnormal++
			}
		}
	}
}

// poison is the non-finite values planted in spare lanes.
var poison = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// plantedFloats copies x and fills every entry past its first n, and
// four more, with NaN and ±Inf, so a pass that reads a spare lane of
// the last partial group reads poison; it returns the first n.
func plantedFloats(x []float64, n int) []float64 {
	out := make([]float64, len(x)+4)
	copy(out, x[:n])
	for i := n; i < len(out); i++ {
		out[i] = poison[i%3]
	}
	return out[:n]
}

// plantedValues is plantedFloats for band values.
func plantedValues(x []complex128, n int) []complex128 {
	out := make([]complex128, len(x)+4)
	copy(out, x[:n])
	for i := n; i < len(out); i++ {
		out[i] = complex(poison[i%3], poison[(i+1)%3])
	}
	return out[:n]
}

// checkScoreParity samples the first n slots of a cut in frame f from
// memo m — through the Go loop and then scoreRef, and with the first
// pre slots through the vector passes scoring as they blend — and
// requires the same weighted cut, sums, memo and tallies bit for bit,
// no store past the cut, and the same sums and memo from a
// distance-only call. When the cut ends inside the vector prefix's last
// group, the spare lanes' band values, weights, cut weights,
// frequencies and memo corners are NaN and ±Inf.
func checkScoreParity(t *testing.T, name string, s *Sampler, fh, fk []float64, f *cutFrame, m *CellMemo, n, pre int, vals []complex128, wt, refW []float64, cov *scoreCoverage) {
	t.Helper()
	ma, mb := cloneMemo(m), cloneMemo(m)
	done := 0
	if f.rowsBounded() {
		done = min(pre, n)
	}
	vb, wb, rb, hb, kb := vals[:n], wt[:n], refW, fh[:n], fk[:n]
	if done == n && n%4 != 0 {
		// The spare lanes lie past the cut: poison them.
		vb, wb, hb, kb = plantedValues(vals, n), plantedFloats(wt, n), plantedFloats(fh, n), plantedFloats(fk, n)
		if refW != nil {
			rb = plantedFloats(refW, n)
		}
		for _, mm := range []*CellMemo{ma, mb} {
			for j := n % 4; j < 4; j++ {
				for q := range mm.corners[n/4] {
					mm.corners[n/4][q][j] = poison[(q+j)%3]
				}
			}
		}
		cov.planted += 4 - n%4
	}
	mc := cloneMemo(mb)
	ca, cb := make([]complex128, n), make([]complex128, n+4)
	for i := range cb {
		cb[i] = sentinel
	}
	xa, ya := axesOf(f)
	memoCut(s, ca, fh[:n], fk[:n], xa, ya, ma, false)
	wantEC, wantCross := scoreRef(ca, vals, wt, refW)
	ec, cross := s.sampleCutMemo(cb[:n], hb, kb, pre, xa, ya, mb, true, vb, wb, rb)
	for i := range ca {
		if !sameBits(ca[i], cb[i]) {
			t.Fatalf("%s n %d pre %d slot %d: Go loop + scoreRef cut %v, fused %v", name, n, pre, i, ca[i], cb[i])
		}
	}
	for i := n; i < len(cb); i++ {
		if !sameBits(cb[i], sentinel) {
			t.Fatalf("%s n %d pre %d: stored %v past the cut, at slot %d", name, n, pre, cb[i], i)
		}
	}
	if !sameSums(ec, cross, wantEC, wantCross) {
		t.Fatalf("%s n %d pre %d refW %v: fused sums (%v, %v), Go loop + scoreRef (%v, %v)", name, n, pre, refW != nil, ec, cross, wantEC, wantCross)
	}
	dec, dcross := s.sampleCutMemo(nil, hb, kb, pre, xa, ya, mc, true, vb, wb, rb)
	if !sameSums(dec, dcross, wantEC, wantCross) {
		t.Fatalf("%s n %d pre %d refW %v: distance-only sums (%v, %v), Go loop + scoreRef (%v, %v)", name, n, pre, refW != nil, dec, dcross, wantEC, wantCross)
	}
	for g := range ma.keys {
		if ma.keys[g] != mb.keys[g] || mb.keys[g] != mc.keys[g] || !sameCorners(&ma.corners[g], &mb.corners[g]) || !sameCorners(&mb.corners[g], &mc.corners[g]) {
			t.Fatalf("%s n %d group %d: the memos differ after the cut", name, n, g)
		}
	}
	if ma.hits != mb.hits || ma.misses != mb.misses || ma.coeffs != mb.coeffs || ma.calls != mb.calls ||
		mb.hits != mc.hits || mb.misses != mc.misses {
		t.Fatalf("%s n %d: tallies Go loop %d/%d, fused %d/%d, distance-only %d/%d (hits/misses)", name, n, ma.hits, ma.misses, mb.hits, mb.misses, mc.hits, mc.misses)
	}
	w := 0
	if refW != nil {
		w = 1
	}
	cov.tails[done%4][w]++
	cov.groups[min((done+3)/4, 2)]++
	if done < n {
		cov.goLoop++
	}
	if s.nearest {
		cov.nearest++
	}
	countSlots(m, fh, fk, f, n, cov)
}

// sameCorners reports whether two groups' corners are the same bit for
// bit (== would call two NaN corners different).
func sameCorners(a, b *[16][4]float64) bool {
	for q := range a {
		for j := range a[q] {
			if math.Float64bits(a[q][j]) != math.Float64bits(b[q][j]) {
				return false
			}
		}
	}
	return true
}

// checkBlendScoreParity scores the blend pass over the first n slots of
// m — fractions and corners as they stand — against blendGroupsRef and
// scoreRef, with and without cut weights and as a distance-only call.
func checkBlendScoreParity(t *testing.T, name string, m *CellMemo, n int, vals []complex128, wt, refW []float64, cov *scoreCoverage) {
	t.Helper()
	ng := (n + 3) / 4
	for _, w := range [][]float64{nil, refW[:n]} {
		da, db := make([]complex128, n), make([]complex128, n)
		blendGroupsRef(da, m.frac[:ng], m.corners[:ng])
		wantEC, wantCross := scoreRef(da, vals[:n], wt[:n], w)
		ec, cross := blendGroupsAVX(db, m.frac[:ng], m.corners[:ng], vals[:n], wt[:n], w)
		for i := range da {
			if !sameBits(da[i], db[i]) {
				t.Fatalf("%s slot %d: reference %v, AVX %v", name, i, da[i], db[i])
			}
		}
		if !sameSums(ec, cross, wantEC, wantCross) {
			t.Fatalf("%s refW %v: AVX sums (%v, %v), reference (%v, %v)", name, w != nil, ec, cross, wantEC, wantCross)
		}
		ec, cross = blendGroupsAVX(nil, m.frac[:ng], m.corners[:ng], vals[:n], wt[:n], w)
		if !sameSums(ec, cross, wantEC, wantCross) {
			t.Fatalf("%s refW %v: distance-only AVX sums (%v, %v), reference (%v, %v)", name, w != nil, ec, cross, wantEC, wantCross)
		}
	}
	for i := range n {
		g, j := i/4, i%4
		if math.IsNaN(m.frac[g][0][j]) || math.IsNaN(m.frac[g][1][j]) || math.IsNaN(m.frac[g][2][j]) {
			cov.leafNaNFrac++
		}
	}
}

// TestCutScoreAVXMatchGo holds the fused cut-and-score pass to the cut
// of the Go loop scored apart by scoreRef (the matcher's cut weighting
// and its former least-squares loop written out), bit for bit — the
// weighted cut, both sums, the memo and its tallies, and the sums and
// memo of a distance-only call: on vector prefixes of every length mod
// 4, with and without cut weights, of 0, 1 and many groups, the spare
// lanes of a last partial group holding NaN and ±Inf in their corners,
// band values, weights, cut weights and frequencies; on cuts whose
// Nyquist ring and corners take the Go loop past the prefix; in both
// interpolations (nearest on half-lattice ties too), with slots out of
// band (pad 1, the square band's corners), at NaN and ±Inf positions
// (axes no rotation has, which send every slot to the Go loop), and on
// −0 and subnormal corners and band values; and the blend pass alone
// against blendGroupsRef and scoreRef, NaN and non-finite fractions
// included. It logs how many of each it saw and fails if a class is
// missing.
func TestCutScoreAVXMatchGo(t *testing.T) {
	if !haveAVX {
		t.Skip("the CPU or OS lacks AVX; SampleCutScore runs the Go loop alone")
	}
	var cov scoreCoverage
	rng := rand.New(rand.NewSource(44))
	fh, fk := squareBand(8)
	vals, wt, refW := scoreInputs(rng, len(fh))
	for _, pad := range []int{1, 2} {
		dft := randomVolumeDFT(16, pad, 97)
		s, sn := dft.NewSampler(Trilinear), dft.NewSampler(Nearest)
		p := s.InNyquist(fh, fk)
		lengths := []int{len(fh), len(fh) - 1, p + 2, p + 1, p, p - 1, p - 2, p - 3, 0, 1, 2, 3, 4, 5, 6, 7, 8}
		var frames []cutFrame
		for range 30 {
			rot := geom.Euler{Theta: rng.Float64() * 180, Phi: rng.Float64() * 360, Omega: rng.Float64() * 360}.Matrix()
			frames = append(frames, frameOf(&s, rot.Col(0), rot.Col(1)))
		}
		frames = append(frames,
			frameOf(&s, geom.Vec3{X: 1}, geom.Vec3{Z: 1}),
			frameOf(&s, geom.Vec3{X: -0.6, Y: -0.8}, geom.Vec3{Y: -0.6, Z: -0.8}),
			// Half-lattice positions of both signs at pad 1: nearest's ties.
			frameOf(&s, geom.Vec3{X: 0.5}, geom.Vec3{Y: -0.5, Z: 0.5}))
		m := NewCellMemo(len(fh))
		for i, f := range frames {
			name := fmt.Sprintf("pad %d frame %d", pad, i)
			for _, n := range lengths {
				for _, w := range [][]float64{nil, refW} {
					for _, pre := range []int{p, p - 3} {
						checkScoreParity(t, name, &s, fh, fk, &f, m, n, pre, vals, wt, w, &cov)
						checkScoreParity(t, name+" nearest", &sn, fh, fk, &f, m, n, pre, vals, wt, w, &cov)
					}
				}
			}
			// The blend pass alone, on locate's fractions with random
			// corners, then with NaN fractions on some lanes and
			// non-finite ones on the spare lanes.
			for _, n := range []int{p, p - 1, p - 2, p - 3} {
				a := checkLocateParity(t, name, fh[:n], fk[:n], &f, m, &leafCoverage{})
				ng := (n + 3) / 4
				for g := range ng {
					for q := range a.corners[g] {
						for j := range 4 {
							a.corners[g][q][j] = cornerValue(rng)
						}
					}
				}
				checkBlendScoreParity(t, name, a, n, vals, wt, refW, &cov)
				for i := range 4 * ng {
					switch {
					case i >= n:
						a.frac[i/4][rng.Intn(3)][i%4] = poison[rng.Intn(3)]
					case rng.Intn(8) == 0:
						a.frac[i/4][rng.Intn(3)][i%4] = math.NaN()
					}
				}
				checkBlendScoreParity(t, name+" non-finite fractions", a, n, vals, wt, refW, &cov)
			}
			// Carry the memo on, so later frames start on held cells.
			xa, ya := axesOf(&f)
			memoCut(&s, make([]complex128, len(fh)), fh, fk, xa, ya, m, true)
		}

		// Non-finite positions, on a memo keyed to every in-band cell:
		// NaN is in band and blends to NaN, ±Inf is out of band. No
		// rotation has such axes, so the Go loop takes every slot.
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			f := frameOf(&s, geom.Vec3{X: v, Y: 0.5}, geom.Vec3{Y: 0.5, Z: 0.7})
			m := NewCellMemo(len(fh))
			keyEvery(m, fh, fk, &f, rng)
			for _, n := range lengths {
				for _, w := range [][]float64{nil, refW} {
					checkScoreParity(t, fmt.Sprintf("pad %d position %v", pad, v), &s, fh, fk, &f, m, n, p, vals, wt, w, &cov)
					checkScoreParity(t, fmt.Sprintf("pad %d position %v nearest", pad, v), &sn, fh, fk, &f, m, n, p, vals, wt, w, &cov)
				}
			}
		}
	}

	t.Logf("coverage: vector prefixes by length mod 4 × (no cut weights, cut weights) %v, by groups (0, 1, more) %v; %d cuts past the prefix, %d in nearest mode; slots: %d out of band, %d at NaN, %d at ±Inf; %d −0 and %d subnormal corners; %d poisoned spare lanes; %d blend-pass lanes at a NaN fraction",
		cov.tails, cov.groups, cov.goLoop, cov.nearest, cov.oob, cov.nan, cov.inf, cov.negZero, cov.subnormal, cov.planted, cov.leafNaNFrac)
	for _, tw := range cov.tails {
		if tw[0] == 0 || tw[1] == 0 {
			t.Fatal("the cases missed a prefix length, with or without cut weights")
		}
	}
	if cov.groups[0] == 0 || cov.groups[1] == 0 || cov.groups[2] == 0 || cov.goLoop == 0 || cov.oob == 0 || cov.nan == 0 || cov.inf == 0 ||
		cov.negZero == 0 || cov.subnormal == 0 || cov.planted == 0 || cov.leafNaNFrac == 0 || cov.nearest == 0 {
		t.Fatal("the cases missed a class they are meant to cover")
	}
}
