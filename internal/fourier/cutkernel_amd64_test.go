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
// requires equal masks and, on every in-band lane, equal candidate cells
// and fractions bit for bit. It returns the reference's memo.
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
// fractions, corners and masks and requires the same cut bit for bit.
func checkBlendParity(t *testing.T, name string, m *CellMemo, ng int) {
	t.Helper()
	da, db := make([]complex128, 4*ng), make([]complex128, 4*ng)
	blendGroupsRef(da, m.frac[:ng], m.corners[:ng], m.mask[:ng])
	blendGroupsAVX(db, m.frac[:ng], m.corners[:ng], m.mask[:ng])
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
		t.Skip("the CPU or OS lacks AVX; SampleCutMemo runs the Go loop alone")
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
				s.sampleCutMemo(ca, fh[:n], fk[:n], xa, ya, ma, false)
				s.sampleCutMemo(cb, fh[:n], fk[:n], xa, ya, mb, true)
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
			s.SampleCutMemo(make([]complex128, len(fh)), fh, fk, geom.Vec3{X: f.xx, Y: f.xy, Z: f.xz}, geom.Vec3{X: f.yx, Y: f.yy, Z: f.yz}, m)
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
	s.sampleCutMemo(nil, nil, nil, geom.Vec3{X: 1}, geom.Vec3{Y: 1}, empty, true)
	if empty.calls != 1 || empty.coeffs != 0 || empty.hits != 0 || empty.misses != 0 {
		t.Fatalf("empty cut tallied %+v", *empty)
	}

	t.Logf("coverage: groups by out-of-band lanes %v, %d misses, %d cells at z0 = −1, %d at the top of the half, %d positions at −0",
		cov.oobLanes, cov.misses, cov.zLow, cov.zTop, cov.negZero)
	if cov.oobLanes[1] == 0 || cov.oobLanes[2] == 0 || cov.oobLanes[4] == 0 || cov.misses == 0 || cov.zLow == 0 || cov.zTop == 0 || cov.negZero == 0 {
		t.Fatal("the cases missed a class they are meant to cover")
	}
}
