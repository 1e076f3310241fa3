package fourier

import (
	"math"
	"math/cmplx"

	"repro/internal/geom"
)

// Sampler is a spectrum sampler specialized to one VolumeDFT: the
// lattice size, oversampling factor and Nyquist bound are hoisted out
// of the per-sample path, wrap arithmetic uses conditional adds
// instead of modulo, and the batched SampleCut kernel evaluates a
// whole comparison band with the trilinear blend fully inlined. It
// produces the same values as VolumeDFT.Sample (which is kept as the
// straightforward reference implementation) but is built for the
// matching hot loop, where it is called once per band coefficient per
// candidate orientation.
//
// It reads the half spectrum by VolumeDFT.At's rule (see gather).
//
// A Sampler is an immutable view of the spectrum and is safe for
// concurrent use.
type Sampler struct {
	v       *VolumeDFT
	l, nh   int // lattice edge and half-spectrum z extent l/2+1
	pad     float64
	ny      float64 // Nyquist bound of the (padded) lattice, l/2
	nearest bool
}

// NewSampler builds a fused sampler for the spectrum with the given
// interpolation mode.
func (v *VolumeDFT) NewSampler(interp Interpolation) Sampler {
	return Sampler{
		v:       v,
		l:       v.L,
		nh:      v.L/2 + 1,
		pad:     float64(v.Pad()),
		ny:      float64(v.L) / 2,
		nearest: interp == Nearest,
	}
}

// At samples the spectrum at the continuous signed-frequency point
// (x, y, z) in image frequency units — the fused equivalent of
// VolumeDFT.Sample. Frequencies beyond Nyquist return zero.
//
//repro:hotpath
func (s *Sampler) At(x, y, z float64) complex128 {
	samplerAtCalls.Inc()
	x *= s.pad
	y *= s.pad
	z *= s.pad
	ny := s.ny
	if x < -ny || x > ny || y < -ny || y > ny || z < -ny || z > ny {
		return 0
	}
	if s.nearest {
		l := s.l
		return s.v.At(wrapFreq(int(math.Round(x)), l), wrapFreq(int(math.Round(y)), l), wrapFreq(int(math.Round(z)), l))
	}
	xf, yf, zf := math.Floor(x), math.Floor(y), math.Floor(z)
	var c [8]complex128
	s.gather(&c, int(xf), int(yf), int(zf))
	return blend(&c, x-xf, y-yf, z-zf)
}

// gather loads the eight corners of the padded-lattice cell whose
// unwrapped lower corner is (x0, y0, z0), in the blend's order: c000,
// c001, c010, c011, c100, c101, c110, c111 (bits x, y, z). A cell below
// z = 0 is read as the conjugate of its mirror, a cell that straddles
// the half's z boundary (z0 = −1, or the top of the half) corner by
// corner through VolumeDFT.At. In-band corner indices lie within
// [−l/2−1, l/2+1], so wrapping needs at most one conditional add or
// subtract instead of wrapFreq's modulo.
func (s *Sampler) gather(c *[8]complex128, x0, y0, z0 int) {
	l, nh := s.l, s.nh
	if (wrapIndex(z0, l) >= nh) != (wrapIndex(z0+1, l) >= nh) {
		xa, xb := wrapIndex(x0, l), wrapIndex(x0+1, l)
		ya, yb := wrapIndex(y0, l), wrapIndex(y0+1, l)
		za, zb := wrapIndex(z0, l), wrapIndex(z0+1, l)
		v := s.v
		*c = [8]complex128{v.At(xa, ya, za), v.At(xa, ya, zb), v.At(xa, yb, za), v.At(xa, yb, zb),
			v.At(xb, ya, za), v.At(xb, ya, zb), v.At(xb, yb, za), v.At(xb, yb, zb)}
		return
	}
	sg := mirrorSign(z0)
	xa, xb := wrapIndex(sg*x0, l), wrapIndex(sg*(x0+1), l)
	ya, yb := wrapIndex(sg*y0, l), wrapIndex(sg*(y0+1), l)
	za, zb := sg*z0, sg*(z0+1)
	d := s.v.Data
	b00 := (xa*l + ya) * nh
	b01 := (xa*l + yb) * nh
	b10 := (xb*l + ya) * nh
	b11 := (xb*l + yb) * nh
	if sg > 0 {
		*c = [8]complex128{d[b00+za], d[b00+zb], d[b01+za], d[b01+zb], d[b10+za], d[b10+zb], d[b11+za], d[b11+zb]}
		return
	}
	*c = [8]complex128{cmplx.Conj(d[b00+za]), cmplx.Conj(d[b00+zb]), cmplx.Conj(d[b01+za]), cmplx.Conj(d[b01+zb]),
		cmplx.Conj(d[b10+za]), cmplx.Conj(d[b10+zb]), cmplx.Conj(d[b11+za]), cmplx.Conj(d[b11+zb])}
}

// mirrorSign is −1 for a cell below z = 0, whose corner u is read as
// conj D̂(−u), and +1 for a cell in the stored half.
func mirrorSign(z0 int) int {
	if z0 < 0 {
		return -1
	}
	return 1
}

// wrapIndex is the array index of an in-band lattice coordinate
// i ∈ [−l/2−1, l/2+1].
func wrapIndex(i, l int) int {
	if i < 0 {
		return i + l
	}
	if i >= l {
		return i - l
	}
	return i
}

// blend is the trilinear blend of a cell's corners c (gather's order)
// at fractional offsets (fx, fy, fz) from its lower corner, with the
// weight association VolumeDFT.Sample uses.
func blend(c *[8]complex128, fx, fy, fz float64) complex128 {
	wx0, wy0, wz0 := 1-fx, 1-fy, 1-fz
	w00, w01 := wx0*wy0, wx0*fy
	w10, w11 := fx*wy0, fx*fy
	w000, w001 := w00*wz0, w00*fz
	w010, w011 := w01*wz0, w01*fz
	w100, w101 := w10*wz0, w10*fz
	w110, w111 := w11*wz0, w11*fz
	re := w000*real(c[0]) + w001*real(c[1]) + w010*real(c[2]) + w011*real(c[3]) +
		w100*real(c[4]) + w101*real(c[5]) + w110*real(c[6]) + w111*real(c[7])
	im := w000*imag(c[0]) + w001*imag(c[1]) + w010*imag(c[2]) + w011*imag(c[3]) +
		w100*imag(c[4]) + w101*imag(c[5]) + w110*imag(c[6]) + w111*imag(c[7])
	return complex(re, im)
}

// SampleCut evaluates the spectrum at h·x̂ + k·ŷ for every coefficient
// of a comparison band given in structure-of-arrays form (fh, fk hold
// the signed image frequencies as float64), writing dst[i] for
// (fh[i], fk[i]). x̂, ŷ are the image axes of the view — columns 0 and
// 1 of the orientation matrix. This is the batched central-section
// kernel of the matcher: one call per candidate orientation, with all
// lattice constants and rotation columns held in registers across the
// band loop. fh and fk must be at least len(dst) long.
//
//repro:hotpath
func (s *Sampler) SampleCut(dst []complex128, fh, fk []float64, xAxis, yAxis geom.Vec3) {
	samplerCutCalls.Inc()
	samplerCutCoeffs.Add(int64(len(dst)))
	xx, xy, xz := xAxis.X, xAxis.Y, xAxis.Z
	yx, yy, yz := yAxis.X, yAxis.Y, yAxis.Z
	if s.nearest {
		for i := range dst {
			h, k := fh[i], fk[i]
			dst[i] = s.At(xx*h+yx*k, xy*h+yy*k, xz*h+yz*k)
		}
		return
	}
	pad, ny := s.pad, s.ny
	l, nh := s.l, s.nh
	d := s.v.Data
	for i := range dst {
		h, k := fh[i], fk[i]
		x := (xx*h + yx*k) * pad
		y := (xy*h + yy*k) * pad
		z := (xz*h + yz*k) * pad
		if x < -ny || x > ny || y < -ny || y > ny || z < -ny || z > ny {
			dst[i] = 0
			continue
		}
		// gather and blend, manually inlined (both are past the
		// compiler's inlining budget, and calling them costs ≈ 45 % per
		// cut): same corner rule, order and weight associativity, so
		// SampleCutMemo's cuts equal these bit for bit. A cell that
		// straddles the half's z boundary (z0 = −1, or the top of the
		// half) goes through gather.
		xf, yf, zf := math.Floor(x), math.Floor(y), math.Floor(z)
		fx, fy, fz := x-xf, y-yf, z-zf
		x0, y0, z0 := int(xf), int(yf), int(zf)
		// A mirrored cell reads the corners of the negated cell and
		// scales their imaginary parts by fs = −1 in the blend: v·(−1)
		// is exactly −v, the conjugate gather would have loaded.
		var c000, c001, c010, c011, c100, c101, c110, c111 complex128
		fs := 1.0
		if (wrapIndex(z0, l) >= nh) != (wrapIndex(z0+1, l) >= nh) {
			var c [8]complex128
			s.gather(&c, x0, y0, z0)
			c000, c001, c010, c011, c100, c101, c110, c111 = c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
		} else {
			sg := mirrorSign(z0)
			xa, xb := wrapIndex(sg*x0, l), wrapIndex(sg*(x0+1), l)
			ya, yb := wrapIndex(sg*y0, l), wrapIndex(sg*(y0+1), l)
			za, zb := sg*z0, sg*(z0+1)
			b00 := (xa*l + ya) * nh
			b01 := (xa*l + yb) * nh
			b10 := (xb*l + ya) * nh
			b11 := (xb*l + yb) * nh
			c000, c001 = d[b00+za], d[b00+zb]
			c010, c011 = d[b01+za], d[b01+zb]
			c100, c101 = d[b10+za], d[b10+zb]
			c110, c111 = d[b11+za], d[b11+zb]
			fs = float64(sg)
		}
		wx0, wy0, wz0 := 1-fx, 1-fy, 1-fz
		w00, w01 := wx0*wy0, wx0*fy
		w10, w11 := fx*wy0, fx*fy
		w000, w001 := w00*wz0, w00*fz
		w010, w011 := w01*wz0, w01*fz
		w100, w101 := w10*wz0, w10*fz
		w110, w111 := w11*wz0, w11*fz
		re := w000*real(c000) + w001*real(c001) + w010*real(c010) + w011*real(c011) +
			w100*real(c100) + w101*real(c101) + w110*real(c110) + w111*real(c111)
		im := w000*(fs*imag(c000)) + w001*(fs*imag(c001)) + w010*(fs*imag(c010)) + w011*(fs*imag(c011)) +
			w100*(fs*imag(c100)) + w101*(fs*imag(c101)) + w110*(fs*imag(c110)) + w111*(fs*imag(c111))
		dst[i] = complex(re, im)
	}
}

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
type CellMemo struct {
	cells   [][3]int32
	corners [][8]complex128
}

// emptyCell is a lower corner no in-band point floors to.
const emptyCell = math.MinInt32

// NewCellMemo allocates an empty memo for bands of up to n slots.
func NewCellMemo(n int) *CellMemo {
	m := &CellMemo{cells: make([][3]int32, n), corners: make([][8]complex128, n)}
	for i := range m.cells {
		m.cells[i][0] = emptyCell
	}
	return m
}

// SampleCutMemo is SampleCut reading the trilinear corners through the
// worker's cell memo: dst[i] is bit-identical to SampleCut's, because a
// hit blends the same eight values with the same weights in the same
// order. dst must be no longer than the memo. The nearest-neighbour
// mode has nothing to remember and runs SampleCut; its memo may be nil.
// The in-band samples count as fourier.sampler.cell_hits or
// cell_misses.
//
//repro:hotpath
func (s *Sampler) SampleCutMemo(dst []complex128, fh, fk []float64, xAxis, yAxis geom.Vec3, memo *CellMemo) {
	if s.nearest {
		s.SampleCut(dst, fh, fk, xAxis, yAxis)
		return
	}
	samplerCutCalls.Inc()
	samplerCutCoeffs.Add(int64(len(dst)))
	xx, xy, xz := xAxis.X, xAxis.Y, xAxis.Z
	yx, yy, yz := yAxis.X, yAxis.Y, yAxis.Z
	pad, ny := s.pad, s.ny
	cells := memo.cells[:len(dst)]
	corners := memo.corners[:len(dst)]
	var inBand, misses int64
	for i := range dst {
		h, k := fh[i], fk[i]
		x := (xx*h + yx*k) * pad
		y := (xy*h + yy*k) * pad
		z := (xz*h + yz*k) * pad
		if x < -ny || x > ny || y < -ny || y > ny || z < -ny || z > ny {
			dst[i] = 0
			continue
		}
		inBand++
		xf, yf, zf := math.Floor(x), math.Floor(y), math.Floor(z)
		c := &corners[i]
		if key := [3]int32{int32(xf), int32(yf), int32(zf)}; key != cells[i] {
			misses++
			cells[i] = key
			s.gather(c, int(key[0]), int(key[1]), int(key[2]))
		}
		dst[i] = blend(c, x-xf, y-yf, z-zf)
	}
	samplerCellHits.Add(inBand - misses)
	samplerCellMisses.Add(misses)
}
