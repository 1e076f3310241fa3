//go:build !purego

package fourier

import "math/bits"

// cpuHasAVX reports whether the CPU implements AVX (CPUID.1:ECX bit
// 28) and the OS saves its registers across context switches (bit 27,
// OSXSAVE, and XCR0 bits 1–2 read by XGETBV).
func cpuHasAVX() bool

// locateGroupsAVX is the locate pass over len(mask) whole groups, four
// lanes per instruction: each lane's position, band test, floors,
// fractions and candidate cell, by sampleSlots' arithmetic, and each
// group's mask (bit j: lane j is in band and its candidate is not its
// key; bit 4+j: lane j is out of band). An out-of-band lane's fractions
// and candidate are unspecified. cutkernel_amd64.s says how each step
// matches the Go code bit for bit.
//
//go:noescape
func locateGroupsAVX(fh, fk []float64, f *cutFrame, keys, cand [][3][4]int32, frac [][3][4]float64, mask []uint8)

// blendGroupsAVX is the blend pass over len(mask) whole groups, four
// lanes per instruction: blendLane's arithmetic on every lane, +0 on an
// out-of-band lane, times refW when refW is not nil. It also scores the
// cut it writes, by scoreSlots' arithmetic with the sums started at +0,
// and returns them. vals, wt and refW (if not nil) must hold
// 4·len(mask) values.
//
//go:noescape
func blendGroupsAVX(dst []complex128, frac [][3][4]float64, corners [][16][4]float64, mask []uint8, vals []complex128, wt, refW []float64) (ec, cross float64)

// haveAVX reports whether the vector passes can run; it is set once,
// at init.
var haveAVX = cpuHasAVX()

// vectorCut samples the whole groups of a cut in three passes: locate
// positions all four slots of each group and marks which missed their
// cell and which fell out of band; a Go pass gathers the missed cells
// into their lanes (the gather is a branchy walk of the half spectrum
// that stays in Go); blend writes the cut, weights it by refW and
// scores it. In the nearest-neighbour mode a Go pass between locate and
// blend snaps the fractions locate wrote (snap), so the assembly is the
// trilinear pass alone. It returns how many slots it sampled (len(dst)
// rounded down to whole groups), how many fell out of band, how many
// missed, and the sums over those slots.
//
//repro:hotpath
func (s *Sampler) vectorCut(dst []complex128, fh, fk []float64, f *cutFrame, m *CellMemo, vals []complex128, wt, refW []float64) (done int, oob, misses int64, ec, cross float64) {
	ng := len(dst) / 4
	done = 4 * ng
	locateGroupsAVX(fh[:done], fk[:done], f, m.keys[:ng], m.cand[:ng], m.frac[:ng], m.mask[:ng])
	for g, mk := range m.mask[:ng] {
		if mk == 0 {
			continue
		}
		oob += int64(bits.OnesCount8(mk >> 4))
		cand := &m.cand[g]
		for mm := mk & 0xf; mm != 0; mm &= mm - 1 {
			j := bits.TrailingZeros8(mm) & 3
			s.fillLane(m, g, j, cand[0][j], cand[1][j], cand[2][j])
			misses++
		}
	}
	if s.nearest {
		for g := range m.frac[:ng] {
			fr := &m.frac[g]
			for a := range fr {
				for j, v := range fr[a] {
					fr[a][j] = snap(v)
				}
			}
		}
	}
	vals, wt = vals[:done], wt[:done]
	if refW != nil {
		refW = refW[:done]
	}
	ec, cross = blendGroupsAVX(dst[:done], m.frac[:ng], m.corners[:ng], m.mask[:ng], vals, wt, refW)
	return done, oob, misses, ec, cross
}
