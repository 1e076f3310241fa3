package fourier

import (
	"math"

	"repro/internal/geom"
)

// CellMemo is one worker's memory of the trilinear cells its last cuts
// fell in: per band slot, the lower corner of the padded-lattice cell
// the slot last sampled and that cell's eight corner values. A search
// level scores candidates one lattice step apart, which moves a band
// coefficient by a fraction of a cell, so from one candidate to the
// next most slots land in the cell they already hold (from ≈ 40 % of
// samples at 1° steps to ≈ 99 % at 0.002° on a 48-pixel map) and the
// blend can skip the wrap arithmetic and the eight gathers from the
// spectrum.
//
// A slot is keyed by its cell alone, and the spectrum a Sampler views
// never changes, so a memo needs no invalidation: whatever coefficient
// a slot held before, a hit reads the corners the gather would. It
// stays valid across candidates, views and levels for as long as it is
// used with one Sampler; keeping slot i on one band coefficient is what
// makes it hit. A CellMemo is not safe for concurrent use; each worker
// owns one.
//
// Slots sit in groups of four, slot i in lane i%4 of group i/4, and
// each field of a group holds its four lanes side by side (structure
// of arrays), so the vector passes of SampleCutScore load one field of
// four slots with one instruction. Where those passes run, a group
// also carries the current cut's scratch: each lane's fractional
// offsets, candidate cell and whether it missed.
//
// The memo tallies its own traffic in plain integers — cuts,
// coefficients, cell hits and misses — which Publish hands to the
// process counters, so the per-cut path does no atomic adds.
type CellMemo struct {
	keys    [][3][4]int32    // cell lower corner by axis and lane
	corners [][16][4]float64 // real parts of c000…c111 (gather's order), then imaginary

	// Scratch of the vector passes, nil without them.
	frac [][3][4]float64 // this cut's offsets from the candidate cell's lower corner
	cand [][3][4]int32   // this cut's cell lower corner
	mask []uint8         // bit j: lane j missed

	gathered [8]complex128 // fillLane's landing place for gather

	calls, coeffs, hits, misses int64
}

// emptyCell is a lower corner no in-band point floors to.
const emptyCell = math.MinInt32

// NewCellMemo allocates an empty memo for bands of up to n slots.
func NewCellMemo(n int) *CellMemo {
	g := (n + 3) / 4
	m := &CellMemo{keys: make([][3][4]int32, g), corners: make([][16][4]float64, g)}
	if haveAVX {
		m.frac, m.cand, m.mask = make([][3][4]float64, g), make([][3][4]int32, g), make([]uint8, g)
	}
	for i := range m.keys {
		m.keys[i][0] = [4]int32{emptyCell, emptyCell, emptyCell, emptyCell}
	}
	return m
}

// Reset returns m to the state NewCellMemo leaves it in: every slot
// forgets its cell, so the next cut gathers every slot afresh, and
// tallies not yet published are dropped.
func (m *CellMemo) Reset() {
	for i := range m.keys {
		m.keys[i][0] = [4]int32{emptyCell, emptyCell, emptyCell, emptyCell}
	}
	m.calls, m.coeffs, m.hits, m.misses = 0, 0, 0, 0
}

// Publish adds the memo's tallies since the last Publish to
// fourier.sampler.{cut_calls,cut_coeffs,cell_hits,cell_misses} and
// clears them. Like every counter, those move only while obs is
// enabled.
func (m *CellMemo) Publish() {
	samplerCutCalls.Add(m.calls)
	samplerCutCoeffs.Add(m.coeffs)
	samplerCellHits.Add(m.hits)
	samplerCellMisses.Add(m.misses)
	m.calls, m.coeffs, m.hits, m.misses = 0, 0, 0, 0
}

// nyquistMargin is the relative margin InNyquist keeps between a
// slot's radius and the Nyquist bound. It dwarfs every rounding error
// of a position (a few units in the last place) and of the axes'
// orthonormality (rowsBounded's 1e-12), so a slot within it lies
// strictly inside the bound.
const nyquistMargin = 1 + 1e-9

// InNyquist returns how many leading slots of the band (fh, fk) no
// rotation can carry past Nyquist: the longest prefix whose every slot
// has hypot(h, k)·(1 + 1e-9) below half the map's edge. A band sorted
// by radius, as the matcher's is, has every slot inside Nyquist in that
// prefix and only its Nyquist ring or beyond after it. It is the
// inNyquist argument of SampleCutScore.
func (s *Sampler) InNyquist(fh, fk []float64) int {
	fk = fk[:len(fh)]
	for i, h := range fh {
		if !(math.Hypot(h, fk[i])*nyquistMargin*s.pad < s.ny) {
			return i
		}
	}
	return len(fh)
}

// cutFrame is one cut's geometry in the order the vector passes read
// it: a band coefficient (h, k) sits at x = (xx·h + yx·k)·pad, and
// likewise y and z; it is in band when no coordinate lies outside
// [−ny, ny].
type cutFrame struct {
	xx, yx, xy, yy, xz, yz float64
	pad, ny, negNy         float64
}

// rowsBounded reports whether every row of the frame's axes, (xx, yx)
// and likewise y and z, has a norm of at most 1 (to 1e-12), as the
// first two columns of a rotation do. By Cauchy–Schwarz each
// coordinate of a slot is then at most its radius times pad, so an
// InNyquist slot stays strictly inside the band. A NaN or infinite
// axis fails it.
func (f *cutFrame) rowsBounded() bool {
	const lim = 1 + 1e-12
	return f.xx*f.xx+f.yx*f.yx <= lim && f.xy*f.xy+f.yy*f.yy <= lim && f.xz*f.xz+f.yz*f.yz <= lim
}

// SampleCutScore is SampleCut reading the cell corners through the
// worker's cell memo, followed by the cut weights and the least-squares
// sums of a distance, over the first len(vals) slots of the band. It
// forms the cut C, times refW[i] when refW is not nil, writes it to dst
// when dst is not nil (dst is then the weighted cut), and returns
//
//	ec = Σ wt[i]·(re C_i·re C_i + im C_i·im C_i)
//	cross = Σ wt[i]·(re vals[i]·re C_i + im vals[i]·im C_i)
//
// each accumulated serially in slot order, with exactly those products
// and parentheses. Before the weights, the cut is bit-identical to
// SampleCut's, because a hit blends the same eight values with the same
// weights in the same order, and the sums are bit for bit those of a
// loop over the weighted cut. It is the one cut entry point of the
// refinement, for every metric and both interpolations: the nearest-
// neighbour mode differs only in the offsets the blend is given (see
// snap). A distance needs only the sums and passes a nil dst.
//
// inNyquist is at most InNyquist(fh, fk): how many leading slots lie
// inside Nyquist at every rotation. When xAxis and yAxis are the first
// two columns of a rotation (rowsBounded), those slots need no band
// test; with any other axes every slot takes it. dst (if not nil), fh,
// fk, wt and refW (if not nil) must be at least len(vals) long, and the
// memo must hold that many slots. The cut and its in-band samples, as
// cell hits or misses, count in the memo's tallies (see Publish).
//
// On amd64 with AVX the in-Nyquist prefix goes through the vector
// passes (see vectorCut), whose blend pass forms the sums as it writes
// each group and masks the spare lanes of a last partial group, and
// the slots past it through the Go loop with its band test; elsewhere,
// and under the purego build tag, the Go loop samples and scores every
// slot.
//
//repro:hotpath
func (s *Sampler) SampleCutScore(dst []complex128, fh, fk []float64, inNyquist int, xAxis, yAxis geom.Vec3, memo *CellMemo, vals []complex128, wt, refW []float64) (ec, cross float64) {
	return s.sampleCutMemo(dst, fh, fk, inNyquist, xAxis, yAxis, memo, haveAVX, vals, wt, refW)
}

// sampleCutMemo is SampleCutScore, through the vector passes only when
// vector is set.
//
//repro:hotpath
func (s *Sampler) sampleCutMemo(dst []complex128, fh, fk []float64, inNyquist int, xAxis, yAxis geom.Vec3, m *CellMemo, vector bool, vals []complex128, wt, refW []float64) (ec, cross float64) {
	n := len(vals)
	f := cutFrame{xAxis.X, yAxis.X, xAxis.Y, yAxis.Y, xAxis.Z, yAxis.Z, s.pad, s.ny, -s.ny}
	var done int
	var misses int64
	if vector && haveAVX && inNyquist > 0 && f.rowsBounded() {
		done = min(inNyquist, n)
	}
	if done > 0 {
		var d []complex128
		if dst != nil {
			d = dst[:done]
		}
		var w []float64
		if refW != nil {
			w = refW[:done]
		}
		misses, ec, cross = s.vectorCut(d, fh[:done], fk[:done], &f, m, vals[:done], wt[:done], w)
	}
	oob, mi := s.sampleSlots(dst, fh, fk, &f, m, done, vals, wt, refW, &ec, &cross)
	misses += mi
	m.calls++
	m.coeffs += int64(n)
	m.hits += int64(n) - oob - misses
	m.misses += misses
	return ec, cross
}

// sampleSlots is the cut in Go, one slot at a time from slot from to
// len(vals), by SampleCut's arithmetic: the position, the band test,
// the floors and, on a miss, the gather into the slot's lane; then
// blendLane at SampleCut's offsets. Each slot's sample is weighted by
// refW (nil: none), stored when dst is not nil, and its least-squares
// terms added to *ec and *cross as SampleCutScore describes. It returns
// how many slots fell out of band and how many missed.
//
//repro:hotpath
func (s *Sampler) sampleSlots(dst []complex128, fh, fk []float64, f *cutFrame, m *CellMemo, from int, vals []complex128, wt, refW []float64, ec, cross *float64) (oob, misses int64) {
	n := len(vals)
	xx, yx, xy, yy, xz, yz := f.xx, f.yx, f.xy, f.yy, f.xz, f.yz
	pad, ny, negNy := f.pad, f.ny, f.negNy
	fh, fk, wt = fh[:n], fk[:n], wt[:n]
	if dst != nil {
		dst = dst[:n]
	}
	if refW != nil {
		refW = refW[:n]
	}
	e, c := *ec, *cross
	for i := from; i < n; i++ {
		h, k := fh[i], fk[i]
		x := (xx*h + yx*k) * pad
		y := (xy*h + yy*k) * pad
		z := (xz*h + yz*k) * pad
		var v complex128
		if x < negNy || x > ny || y < negNy || y > ny || z < negNy || z > ny {
			oob++
		} else {
			xf, yf, zf := math.Floor(x), math.Floor(y), math.Floor(z)
			cx, cy, cz := int32(xf), int32(yf), int32(zf)
			g, j := i>>2, i&3
			key := &m.keys[g]
			if cx != key[0][j] || cy != key[1][j] || cz != key[2][j] {
				s.fillLane(m, g, j, cx, cy, cz)
				misses++
			}
			fx, fy, fz := s.offsets(x, y, z, xf, yf, zf)
			v = blendLane(&m.corners[g], j, fx, fy, fz)
		}
		if refW != nil {
			w := refW[i]
			v = complex(real(v)*w, imag(v)*w)
		}
		if dst != nil {
			dst[i] = v
		}
		fv, w := vals[i], wt[i]
		cr, ci := real(v), imag(v)
		e += w * (cr*cr + ci*ci)
		c += w * (real(fv)*cr + imag(fv)*ci)
	}
	*ec, *cross = e, c
	return oob, misses
}

// fillLane keys lane j of group g to the cell with lower corner
// (cx, cy, cz) and gathers that cell's corners into the lane. gather
// lands them in the memo's own gathered array, which it overwrites
// whole, so no temporary is zeroed per miss.
func (s *Sampler) fillLane(m *CellMemo, g, j int, cx, cy, cz int32) {
	j &= 3
	key, c, cc := &m.keys[g], &m.corners[g], &m.gathered
	key[0][j], key[1][j], key[2][j] = cx, cy, cz
	s.gather(cc, int(cx), int(cy), int(cz))
	for q, v := range cc {
		c[q][j], c[8+q][j] = real(v), imag(v)
	}
}

// blendLane is the trilinear sample of lane j of a group at fractional
// offsets (fx, fy, fz): blend's arithmetic term for term — the same
// weights, products and left-to-right sums — on the lane's rows of
// corners. It stays a call of its own: with j in a register each
// corner is one load, where a loop over the lanes spends more on
// addresses than on the blend.
func blendLane(c *[16][4]float64, j int, fx, fy, fz float64) complex128 {
	j &= 3
	wx0, wy0, wz0 := 1-fx, 1-fy, 1-fz
	w00, w01 := wx0*wy0, wx0*fy
	w10, w11 := fx*wy0, fx*fy
	w000, w001 := w00*wz0, w00*fz
	w010, w011 := w01*wz0, w01*fz
	w100, w101 := w10*wz0, w10*fz
	w110, w111 := w11*wz0, w11*fz
	re := w000*c[0][j] + w001*c[1][j] + w010*c[2][j] + w011*c[3][j] +
		w100*c[4][j] + w101*c[5][j] + w110*c[6][j] + w111*c[7][j]
	im := w000*c[8][j] + w001*c[9][j] + w010*c[10][j] + w011*c[11][j] +
		w100*c[12][j] + w101*c[13][j] + w110*c[14][j] + w111*c[15][j]
	return complex(re, im)
}
