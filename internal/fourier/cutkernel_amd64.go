//go:build !purego

package fourier

import (
	"math/bits"

	"repro/internal/fft"
)

// locateGroupsAVX is the locate pass over the len(fh) slots of a cut's
// in-Nyquist prefix, four lanes per instruction: each lane's position,
// floors, fractions and candidate cell, by sampleSlots' arithmetic
// without its band test (every slot is in band), and each group's mask
// (bit j: lane j's candidate is not its key). A last partial group
// loads its spare lanes' h and k as zero and never marks them missed.
// mask holds one byte per group, len(fh) rounded up to whole groups.
// cutkernel_amd64.s says how each step matches the Go code bit for bit.
//
//go:noescape
func locateGroupsAVX(fh, fk []float64, f *cutFrame, keys, cand [][3][4]int32, frac [][3][4]float64, mask []uint8)

// blendGroupsAVX is the blend pass over the len(vals) slots of a cut's
// in-Nyquist prefix, four lanes per instruction: blendLane's arithmetic
// on every lane, times refW when refW is not nil, written to dst when
// dst is not nil. It also scores the cut, by sampleSlots' arithmetic
// with the sums started at +0, and returns them. The spare lanes of a
// last partial group are neither loaded from vals, wt and refW nor
// stored, and their terms are masked to +0, which leaves both sums
// unchanged. frac and corners hold len(vals) rounded up to whole
// groups; dst (if not nil), wt and refW (if not nil) hold len(vals)
// values.
//
//go:noescape
func blendGroupsAVX(dst []complex128, frac [][3][4]float64, corners [][16][4]float64, vals []complex128, wt, refW []float64) (ec, cross float64)

// haveAVX reports whether the vector passes can run: the CPU and OS
// run AVX code (fft.HaveAVX, probed once at init).
var haveAVX = fft.HaveAVX

// vectorCut samples the len(vals) slots of a cut's in-Nyquist prefix in
// three passes: locate positions all four slots of each group and marks
// which missed their cell; a Go pass gathers the missed cells into
// their lanes (the gather is a branchy walk of the half spectrum that
// stays in Go); blend writes the cut when dst is not nil, weights it by
// refW and scores it. In the nearest-neighbour mode a Go pass between
// locate and blend snaps the fractions locate wrote (snap), so the
// assembly is the trilinear pass alone. It returns how many slots
// missed and the sums over the prefix.
//
//repro:hotpath
func (s *Sampler) vectorCut(dst []complex128, fh, fk []float64, f *cutFrame, m *CellMemo, vals []complex128, wt, refW []float64) (misses int64, ec, cross float64) {
	ng := (len(vals) + 3) / 4
	locateGroupsAVX(fh, fk, f, m.keys[:ng], m.cand[:ng], m.frac[:ng], m.mask[:ng])
	for g, mk := range m.mask[:ng] {
		cand := &m.cand[g]
		for ; mk != 0; mk &= mk - 1 {
			j := bits.TrailingZeros8(mk) & 3
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
	ec, cross = blendGroupsAVX(dst, m.frac[:ng], m.corners[:ng], vals, wt, refW)
	return misses, ec, cross
}
