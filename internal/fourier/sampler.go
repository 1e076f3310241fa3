package fourier

import (
	"math"
	"math/cmplx"

	"repro/internal/geom"
)

// Sampler is a spectrum sampler specialized to one VolumeDFT: the
// lattice size, oversampling factor and Nyquist bound are hoisted out
// of the per-sample path, and wrap arithmetic uses conditional adds
// instead of modulo. Every sample it takes loads its cell with gather;
// At and SampleCut interpolate with blend, and SampleCutScore with
// blendLane or the AVX blend pass, which repeat blend's arithmetic on
// the memo's lanes (see CellMemo). The nearest-neighbour mode is the
// same code on snapped offsets (see offsets). It produces the same
// values as VolumeDFT.Sample (which is kept as the straightforward
// reference implementation) but is built for the matching hot loop,
// where it is called once per band coefficient per candidate
// orientation.
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
func (s *Sampler) At(x, y, z float64) complex128 {
	x *= s.pad
	y *= s.pad
	z *= s.pad
	ny := s.ny
	if x < -ny || x > ny || y < -ny || y > ny || z < -ny || z > ny {
		return 0
	}
	xf, yf, zf := math.Floor(x), math.Floor(y), math.Floor(z)
	var c [8]complex128
	s.gather(&c, int(xf), int(yf), int(zf))
	fx, fy, fz := s.offsets(x, y, z, xf, yf, zf)
	return blend(&c, fx, fy, fz)
}

// offsets is the blend's fractional offsets of the point (x, y, z) from
// the lower corner (xf, yf, zf) of its cell; in the nearest-neighbour
// mode each is snapped to 0 or 1 (snap), so the blend returns the
// nearest corner.
func (s *Sampler) offsets(x, y, z, xf, yf, zf float64) (fx, fy, fz float64) {
	fx, fy, fz = x-xf, y-yf, z-zf
	if s.nearest {
		fx, fy, fz = snap(fx), snap(fy), snap(fz)
	}
	return fx, fy, fz
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
		c[0], c[1], c[2], c[3] = v.At(xa, ya, za), v.At(xa, ya, zb), v.At(xa, yb, za), v.At(xa, yb, zb)
		c[4], c[5], c[6], c[7] = v.At(xb, ya, za), v.At(xb, ya, zb), v.At(xb, yb, za), v.At(xb, yb, zb)
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
		c[0], c[1], c[2], c[3] = d[b00+za], d[b00+zb], d[b01+za], d[b01+zb]
		c[4], c[5], c[6], c[7] = d[b10+za], d[b10+zb], d[b11+za], d[b11+zb]
		return
	}
	c[0], c[1], c[2], c[3] = cmplx.Conj(d[b00+za]), cmplx.Conj(d[b00+zb]), cmplx.Conj(d[b01+za]), cmplx.Conj(d[b01+zb])
	c[4], c[5], c[6], c[7] = cmplx.Conj(d[b10+za]), cmplx.Conj(d[b10+zb]), cmplx.Conj(d[b11+za]), cmplx.Conj(d[b11+zb])
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
// 1 of the orientation matrix. fh and fk must be at least len(dst)
// long. Every in-band sample goes through gather and blend;
// SampleCutScore gathers its misses through the same gather and blends
// by blend's arithmetic on the same offsets, so the two cut paths agree
// bit for bit (tests hold it). Refinement cuts go through
// SampleCutScore; SampleCut is the tests' reference cut, and
// cmd/benchcycle times it.
//
//repro:hotpath
func (s *Sampler) SampleCut(dst []complex128, fh, fk []float64, xAxis, yAxis geom.Vec3) {
	samplerCutCalls.Inc()
	samplerCutCoeffs.Add(int64(len(dst)))
	xx, xy, xz := xAxis.X, xAxis.Y, xAxis.Z
	yx, yy, yz := yAxis.X, yAxis.Y, yAxis.Z
	pad, ny := s.pad, s.ny
	var c [8]complex128
	for i := range dst {
		h, k := fh[i], fk[i]
		x := (xx*h + yx*k) * pad
		y := (xy*h + yy*k) * pad
		z := (xz*h + yz*k) * pad
		if x < -ny || x > ny || y < -ny || y > ny || z < -ny || z > ny {
			dst[i] = 0
			continue
		}
		xf, yf, zf := math.Floor(x), math.Floor(y), math.Floor(z)
		s.gather(&c, int(xf), int(yf), int(zf))
		fx, fy, fz := s.offsets(x, y, z, xf, yf, zf)
		dst[i] = blend(&c, fx, fy, fz)
	}
}
