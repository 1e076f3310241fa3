//go:build !purego

package fourier

import (
	"fmt"
	"math"
	"math/bits"
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
// SampleCut's arithmetic: the oracle locateGroupsAVX is held to.
func locateGroupsRef(fh, fk []float64, f *cutFrame, keys, cand [][3][4]int32, frac [][3][4]float64, mask []uint8) {
	for g := range mask {
		var mk uint8
		for j := range 4 {
			h, k := fh[4*g+j], fk[4*g+j]
			x := (f.xx*h + f.yx*k) * f.pad
			y := (f.xy*h + f.yy*k) * f.pad
			z := (f.xz*h + f.yz*k) * f.pad
			if x < -f.ny || x > f.ny || y < -f.ny || y > f.ny || z < -f.ny || z > f.ny {
				mk |= 0x10 << j
				continue
			}
			xf, yf, zf := math.Floor(x), math.Floor(y), math.Floor(z)
			frac[g][0][j], frac[g][1][j], frac[g][2][j] = x-xf, y-yf, z-zf
			cand[g][0][j], cand[g][1][j], cand[g][2][j] = int32(xf), int32(yf), int32(zf)
			if cand[g][0][j] != keys[g][0][j] || cand[g][1][j] != keys[g][1][j] || cand[g][2][j] != keys[g][2][j] {
				mk |= 1 << j
			}
		}
		mask[g] = mk
	}
}

// blendGroupsRef blends every in-band lane through blend itself, on the
// lane's corners copied into gather's order, and writes +0 for an
// out-of-band lane: the oracle blendGroupsAVX is held to.
func blendGroupsRef(dst []complex128, frac [][3][4]float64, corners [][16][4]float64, mask []uint8) {
	for g, mk := range mask {
		for j := range 4 {
			if mk&(0x10<<j) != 0 {
				dst[4*g+j] = 0
				continue
			}
			var c [8]complex128
			for q := range c {
				c[q] = complex(corners[g][q][j], corners[g][8+q][j])
			}
			dst[4*g+j] = blend(&c, frac[g][0][j], frac[g][1][j], frac[g][2][j])
		}
	}
}

// leafCoverage counts what the parity checks have seen.
type leafCoverage struct {
	oobLanes [5]int // groups by out-of-band lane count
	misses   int    // in-band lanes that missed
	zLow     int    // in-band lanes whose cell straddles z = 0 (z0 = −1)
	zTop     int    // in-band lanes whose cell straddles the top of the half (z0 = l/2)
	negZero  int    // in-band lanes positioned at −0 on some axis
}

// checkLocateParity runs locateGroupsAVX and locateGroupsRef over the
// whole groups of (fh, fk) in frame f from the same memo state and
// requires equal masks and, on every in-band lane, equal candidate cells and
// fractions bit for bit. It returns the reference's memo.
func checkLocateParity(t *testing.T, name string, fh, fk []float64, f *cutFrame, m *CellMemo, l int, cov *leafCoverage) *CellMemo {
	t.Helper()
	ng := len(fh) / 4
	a, b := cloneMemo(m), cloneMemo(m)
	locateGroupsRef(fh[:4*ng], fk[:4*ng], f, a.keys[:ng], a.cand[:ng], a.frac[:ng], a.mask[:ng])
	locateGroupsAVX(fh[:4*ng], fk[:4*ng], f, b.keys[:ng], b.cand[:ng], b.frac[:ng], b.mask[:ng])
	for g := range ng {
		if a.mask[g] != b.mask[g] {
			t.Fatalf("%s group %d: mask reference %08b, AVX %08b", name, g, a.mask[g], b.mask[g])
		}
		cov.oobLanes[bits.OnesCount8(a.mask[g]>>4)]++
		for j := range 4 {
			if a.mask[g]&(0x10<<j) != 0 {
				continue
			}
			if a.mask[g]&(1<<j) != 0 {
				cov.misses++
			}
			for ax := range 3 {
				if a.cand[g][ax][j] != b.cand[g][ax][j] || math.Float64bits(a.frac[g][ax][j]) != math.Float64bits(b.frac[g][ax][j]) {
					t.Fatalf("%s group %d lane %d axis %d: reference cell %d frac %v, AVX cell %d frac %v",
						name, g, j, ax, a.cand[g][ax][j], a.frac[g][ax][j], b.cand[g][ax][j], b.frac[g][ax][j])
				}
			}
			switch a.cand[g][2][j] {
			case -1:
				cov.zLow++
			case int32(l / 2):
				cov.zTop++
			}
			h, k := fh[4*g+j], fk[4*g+j]
			for _, p := range [3]float64{(f.xx*h + f.yx*k) * f.pad, (f.xy*h + f.yy*k) * f.pad, (f.xz*h + f.yz*k) * f.pad} {
				if p == 0 && math.Signbit(p) {
					cov.negZero++
				}
			}
		}
	}
	return a
}

// checkBlendParity runs blendGroupsAVX and blendGroupsRef over the same
// fractions, corners and masks and requires the same cut bit for bit
// (the pass scores it against zero values and weights, as memoCut).
func checkBlendParity(t *testing.T, name string, m *CellMemo, ng int) {
	t.Helper()
	da, db := make([]complex128, 4*ng), make([]complex128, 4*ng)
	blendGroupsRef(da, m.frac[:ng], m.corners[:ng], m.mask[:ng])
	blendGroupsAVX(db, m.frac[:ng], m.corners[:ng], m.mask[:ng], make([]complex128, 4*ng), make([]float64, 4*ng), nil)
	for i := range da {
		if !sameBits(da[i], db[i]) {
			t.Fatalf("%s slot %d: blend %v, AVX %v", name, i, da[i], db[i])
		}
		if m.mask[i/4]&(0x10<<(i%4)) != 0 && math.Float64bits(real(db[i]))|math.Float64bits(imag(db[i])) != 0 {
			t.Fatalf("%s slot %d: out of band but AVX wrote %v, want +0", name, i, db[i])
		}
	}
}

// frameOf is the cut frame of image axes x̂, ŷ on sampler s.
func frameOf(s *Sampler, xa, ya geom.Vec3) cutFrame {
	return cutFrame{xa.X, ya.X, xa.Y, ya.Y, xa.Z, ya.Z, s.pad, s.ny, -s.ny}
}

// TestCutLeavesAVXMatchGo holds the AVX passes to their references in
// Go bit for bit — masks, candidate cells, fractions and cuts — and
// whole cuts with and without the vector passes to each other, memo
// and tallies included, and to SampleCut:
// out of band by one, two and all four lanes of a group (pad 1, the
// square band's corners), on cells straddling z = 0 and the top of the
// half, on an empty memo, on positions at −0, and at NaN and ±Inf
// positions (locate only: a NaN lane is in band, as in Go).
func TestCutLeavesAVXMatchGo(t *testing.T) {
	if !cpuHasAVX() {
		t.Skip("the CPU or OS lacks AVX; SampleCutScore runs the Go loop alone")
	}
	var cov leafCoverage
	rng := rand.New(rand.NewSource(43))
	fh, fk := squareBand(8)
	// −0 band coordinates, and (0, 0) at the end of a group.
	fh, fk = append(fh, math.Copysign(0, -1), 0, 1, 0), append(fk, 0, math.Copysign(0, -1), 0, 0)
	for _, pad := range []int{1, 2} {
		s := randomVolumeDFT(16, pad, 89).NewSampler(Trilinear)
		l := s.l
		var frames []cutFrame
		for range 40 {
			rot := geom.Euler{Theta: rng.Float64() * 180, Phi: rng.Float64() * 360, Omega: rng.Float64() * 360}.Matrix()
			frames = append(frames, frameOf(&s, rot.Col(0), rot.Col(1)))
		}
		// ŷ along z: z = k·pad lands on whole cells from −ny to ny,
		// so cells straddle z = 0 (z0 = −1) and the top of the half
		// (z0 = l/2, at k·pad = ny); negative axes put (0, 0) at −0.
		frames = append(frames,
			frameOf(&s, geom.Vec3{X: 1}, geom.Vec3{Z: 1}),
			frameOf(&s, geom.Vec3{X: -1}, geom.Vec3{Z: -1}),
			frameOf(&s, geom.Vec3{X: -0.6, Y: -0.8}, geom.Vec3{Y: -0.6, Z: -0.8}),
			frameOf(&s, geom.Vec3{X: 0.5, Y: 0.5, Z: -math.Sqrt(0.5)}, geom.Vec3{X: -0.5, Y: 0.5, Z: 0.25}))
		m := NewCellMemo(len(fh))
		for i, f := range frames {
			name := fmt.Sprintf("pad %d frame %d", pad, i)
			a := checkLocateParity(t, name, fh, fk, &f, m, l, &cov)
			// Random corners, −0 and subnormals among them, under the
			// fractions and masks locate wrote.
			for g := range a.corners {
				for q := range a.corners[g] {
					for j := range 4 {
						v := rng.NormFloat64()
						switch rng.Intn(16) {
						case 0:
							v = math.Copysign(0, -1)
						case 1:
							v *= 1e-310
						}
						a.corners[g][q][j] = v
					}
				}
			}
			checkBlendParity(t, name, a, len(fh)/4)

			// Whole cuts with and without the vector passes from the
			// same memo, every tail length included.
			for _, n := range []int{len(fh), len(fh) - 1, len(fh) - 2, len(fh) - 3, 5, 1, 0} {
				ma, mb := cloneMemo(m), cloneMemo(m)
				ca, cb, want := make([]complex128, n), make([]complex128, n), make([]complex128, n)
				xa := geom.Vec3{X: f.xx, Y: f.xy, Z: f.xz}
				ya := geom.Vec3{X: f.yx, Y: f.yy, Z: f.yz}
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
			}
			// Carry the memo on, so later frames start on held cells.
			memoCut(&s, make([]complex128, len(fh)), fh, fk, geom.Vec3{X: f.xx, Y: f.xy, Z: f.xz}, geom.Vec3{X: f.yx, Y: f.yy, Z: f.yz}, m, true)
		}

		// Non-finite positions: NaN is in band, ±Inf out of band.
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			f := frameOf(&s, geom.Vec3{X: v, Y: 0.5}, geom.Vec3{Y: 0.5, Z: 1})
			checkLocateParity(t, "non-finite frame", fh, fk, &f, NewCellMemo(len(fh)), l, &cov)
		}
	}

	// An empty memo: nothing to locate, gather or blend.
	s := randomVolumeDFT(16, 2, 89).NewSampler(Trilinear)
	empty := NewCellMemo(0)
	memoCut(&s, nil, nil, nil, geom.Vec3{X: 1}, geom.Vec3{Y: 1}, empty, true)
	if empty.calls != 1 || empty.coeffs != 0 || empty.hits != 0 || empty.misses != 0 {
		t.Fatalf("empty cut tallied %+v", *empty)
	}

	t.Logf("coverage: groups by out-of-band lanes %v, %d misses, %d cells at z0 = −1, %d at the top of the half, %d positions at −0",
		cov.oobLanes, cov.misses, cov.zLow, cov.zTop, cov.negZero)
	if cov.oobLanes[1] == 0 || cov.oobLanes[2] == 0 || cov.oobLanes[4] == 0 || cov.misses == 0 || cov.zLow == 0 || cov.zTop == 0 || cov.negZero == 0 {
		t.Fatal("the cases missed a class they are meant to cover")
	}
}

// scoreCoverage counts what TestCutScoreAVXMatchGo has seen.
type scoreCoverage struct {
	tails       [4][2]int // whole cuts by length mod 4, without and with cut weights
	groups      [3]int    // whole cuts of 0, 1 and more groups
	oob         int       // slots out of band
	nan, inf    int       // slots at a NaN position, at an infinite position
	negZero     int       // −0 corners blended
	subnormal   int       // subnormal corners blended
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

// checkScoreParity samples the first n slots of a cut in frame f from
// memo m twice — through the Go loop and then scoreRef, and through the
// vector passes scoring as they blend — and requires the same weighted
// cut, sums, memo and tallies bit for bit.
func checkScoreParity(t *testing.T, name string, s *Sampler, fh, fk []float64, f *cutFrame, m *CellMemo, n int, vals []complex128, wt, refW []float64, cov *scoreCoverage) {
	t.Helper()
	ma, mb := cloneMemo(m), cloneMemo(m)
	ca, cb := make([]complex128, n), make([]complex128, n)
	xa := geom.Vec3{X: f.xx, Y: f.xy, Z: f.xz}
	ya := geom.Vec3{X: f.yx, Y: f.yy, Z: f.yz}
	memoCut(s, ca, fh[:n], fk[:n], xa, ya, ma, false)
	wantEC, wantCross := scoreRef(ca, vals, wt, refW)
	ec, cross := s.sampleCutMemo(cb, fh[:n], fk[:n], xa, ya, mb, true, vals, wt, refW)
	for i := range ca {
		if !sameBits(ca[i], cb[i]) {
			t.Fatalf("%s n %d slot %d: Go loop + scoreRef cut %v, fused %v", name, n, i, ca[i], cb[i])
		}
	}
	if !sameSums(ec, cross, wantEC, wantCross) {
		t.Fatalf("%s n %d refW %v: fused sums (%v, %v), Go loop + scoreRef (%v, %v)", name, n, refW != nil, ec, cross, wantEC, wantCross)
	}
	for g := range ma.keys {
		if ma.keys[g] != mb.keys[g] || ma.corners[g] != mb.corners[g] {
			t.Fatalf("%s n %d group %d: the memos differ after the cut", name, n, g)
		}
	}
	if ma.hits != mb.hits || ma.misses != mb.misses || ma.coeffs != mb.coeffs || ma.calls != mb.calls {
		t.Fatalf("%s n %d: tallies Go loop %d/%d, fused %d/%d (hits/misses)", name, n, ma.hits, ma.misses, mb.hits, mb.misses)
	}
	w := 0
	if refW != nil {
		w = 1
	}
	cov.tails[n%4][w]++
	cov.groups[min(n/4, 2)]++
	if s.nearest {
		cov.nearest++
	}
	countSlots(m, fh, fk, f, n, cov)
}

// checkBlendScoreParity scores the blend pass of the first ng groups of
// m — fractions, corners and masks as they stand — against
// blendGroupsRef and scoreRef, with and without cut weights.
func checkBlendScoreParity(t *testing.T, name string, m *CellMemo, ng int, vals []complex128, wt, refW []float64, cov *scoreCoverage) {
	t.Helper()
	for _, w := range [][]float64{nil, refW[:4*ng]} {
		da, db := make([]complex128, 4*ng), make([]complex128, 4*ng)
		blendGroupsRef(da, m.frac[:ng], m.corners[:ng], m.mask[:ng])
		wantEC, wantCross := scoreRef(da, vals[:4*ng], wt[:4*ng], w)
		ec, cross := blendGroupsAVX(db, m.frac[:ng], m.corners[:ng], m.mask[:ng], vals[:4*ng], wt[:4*ng], w)
		for i := range da {
			if !sameBits(da[i], db[i]) {
				t.Fatalf("%s slot %d: reference %v, AVX %v", name, i, da[i], db[i])
			}
		}
		if !sameSums(ec, cross, wantEC, wantCross) {
			t.Fatalf("%s refW %v: AVX sums (%v, %v), reference (%v, %v)", name, w != nil, ec, cross, wantEC, wantCross)
		}
	}
	for g := range ng {
		for j := range 4 {
			if m.mask[g]&(0x10<<j) == 0 && (math.IsNaN(m.frac[g][0][j]) || math.IsNaN(m.frac[g][1][j]) || math.IsNaN(m.frac[g][2][j])) {
				cov.leafNaNFrac++
			}
		}
	}
}

// TestCutScoreAVXMatchGo holds the fused cut-and-score pass to the cut
// of the Go loop scored apart by scoreRef (the matcher's cut weighting
// and its former least-squares loop written out), bit for bit — the
// weighted cut, both sums, the memo and its tallies: on whole cuts of
// every length mod 4, with and without cut weights, of 0, 1 and many
// groups, in both interpolations (nearest on half-lattice ties too),
// with slots out of band (pad 1, the square band's corners), at NaN and
// ±Inf positions, and on −0 and subnormal corners and band values; and
// the blend pass alone against blendGroupsRef and scoreRef, NaN
// fractions and non-finite fractions under out-of-band lanes included.
// It logs how many of each it saw and fails if a class is missing.
func TestCutScoreAVXMatchGo(t *testing.T) {
	if !cpuHasAVX() {
		t.Skip("the CPU or OS lacks AVX; SampleCutScore runs the Go loop alone")
	}
	var cov scoreCoverage
	rng := rand.New(rand.NewSource(44))
	fh, fk := squareBand(8)
	vals, wt, refW := scoreInputs(rng, len(fh))
	lengths := []int{len(fh), len(fh) - 1, len(fh) - 2, len(fh) - 3, 0, 1, 2, 3, 4, 5, 6, 7, 8}
	for _, pad := range []int{1, 2} {
		dft := randomVolumeDFT(16, pad, 97)
		s, sn := dft.NewSampler(Trilinear), dft.NewSampler(Nearest)
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
					checkScoreParity(t, name, &s, fh, fk, &f, m, n, vals, wt, w, &cov)
					checkScoreParity(t, name+" nearest", &sn, fh, fk, &f, m, n, vals, wt, w, &cov)
				}
			}
			// The blend pass alone, on locate's fractions and masks with
			// random corners, then with NaN fractions on some in-band
			// lanes and non-finite ones on the out-of-band lanes.
			a := checkLocateParity(t, name, fh, fk, &f, m, s.l, &leafCoverage{})
			ng := len(fh) / 4
			for g := range ng {
				for q := range a.corners[g] {
					for j := range 4 {
						a.corners[g][q][j] = cornerValue(rng)
					}
				}
			}
			checkBlendScoreParity(t, name, a, ng, vals, wt, refW, &cov)
			for g := range ng {
				for j := range 4 {
					switch {
					case a.mask[g]&(0x10<<j) != 0:
						a.frac[g][rng.Intn(3)][j] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
					case rng.Intn(8) == 0:
						a.frac[g][rng.Intn(3)][j] = math.NaN()
					}
				}
			}
			checkBlendScoreParity(t, name+" non-finite fractions", a, ng, vals, wt, refW, &cov)
		}

		// Non-finite positions, on a memo keyed to every in-band cell:
		// NaN is in band and blends to NaN, ±Inf is out of band.
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			f := frameOf(&s, geom.Vec3{X: v, Y: 0.5}, geom.Vec3{Y: 0.5, Z: 0.7})
			m := NewCellMemo(len(fh))
			keyEvery(m, fh, fk, &f, rng)
			for _, n := range lengths {
				for _, w := range [][]float64{nil, refW} {
					checkScoreParity(t, fmt.Sprintf("pad %d position %v", pad, v), &s, fh, fk, &f, m, n, vals, wt, w, &cov)
					checkScoreParity(t, fmt.Sprintf("pad %d position %v nearest", pad, v), &sn, fh, fk, &f, m, n, vals, wt, w, &cov)
				}
			}
		}
	}

	t.Logf("coverage: cuts by length mod 4 × (no cut weights, cut weights) %v, by groups (0, 1, more) %v, %d in nearest mode; slots: %d out of band, %d at NaN, %d at ±Inf; %d −0 and %d subnormal corners; %d blend-pass lanes at a NaN fraction",
		cov.tails, cov.groups, cov.nearest, cov.oob, cov.nan, cov.inf, cov.negZero, cov.subnormal, cov.leafNaNFrac)
	for _, tw := range cov.tails {
		if tw[0] == 0 || tw[1] == 0 {
			t.Fatal("the cases missed a tail length, with or without cut weights")
		}
	}
	if cov.groups[0] == 0 || cov.groups[1] == 0 || cov.groups[2] == 0 || cov.oob == 0 || cov.nan == 0 || cov.inf == 0 || cov.negZero == 0 || cov.subnormal == 0 || cov.leafNaNFrac == 0 || cov.nearest == 0 {
		t.Fatal("the cases missed a class they are meant to cover")
	}
}
