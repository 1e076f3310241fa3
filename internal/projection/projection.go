// Package projection computes 2-D projections of a 3-D electron
// density, in two independent ways:
//
//   - Real: direct line integration through the density grid along the
//     view axis, sampling by trilinear interpolation. This is how the
//     synthetic "experimental" views of the test datasets are made.
//   - Fourier: extraction of a central section of the 3-D DFT followed
//     by an inverse 2-D DFT, per the projection-slice theorem. This is
//     the representation the refinement algorithm matches against.
//
// The two paths agreeing (up to interpolation error) is the central
// correctness property of the whole pipeline and is enforced by the
// package tests.
package projection

import (
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/volume"
)

// Real projects the density g at orientation o by integrating along
// the view axis. Pixel (j,k) of the result is the sum over t of the
// density at center + (j−c)·x̂' + (k−c)·ŷ' + t·ẑ', with t spanning the
// full box. Samples outside the grid contribute zero, so each ray sums
// only the samples that can touch the grid (clip): the ones it skips
// are exact +0 and a sum that starts at +0 is never −0, so skipping
// them moves no bit.
func Real(g *volume.Grid, o geom.Euler) *volume.Image {
	l := g.L
	c := float64(l / 2)
	m := o.Matrix()
	xa, ya, za := m.Col(0), m.Col(1), m.Col(2)
	out := volume.NewImage(l)
	half := l / 2
	for j := 0; j < l; j++ {
		u := float64(j) - c
		for k := 0; k < l; k++ {
			v := float64(k) - c
			// Base point of the ray in map coordinates.
			base := geom.Vec3{X: c, Y: c, Z: c}.
				Add(xa.Scale(u)).
				Add(ya.Scale(v))
			lo, hi := clip(base.X, za.X, l, -half, l-half)
			lo, hi = clip(base.Y, za.Y, l, lo, hi)
			lo, hi = clip(base.Z, za.Z, l, lo, hi)
			var sum float64
			for t := lo; t < hi; t++ {
				p := base.Add(za.Scale(float64(t)))
				sum += g.Interp(p.X, p.Y, p.Z)
			}
			out.Set(j, k, sum)
		}
	}
	return out
}

// clip narrows the sample range [lo, hi) of one ray to the samples t
// whose coordinate b + t·a on one axis lies in (−1, l). Outside it
// every corner of the sample is off the lattice or has zero weight, so
// Interp returns exactly +0 there. The slab bound (−1 − b)/a < t <
// (l − b)/a is only the starting guess: each end is settled on the
// sample expression itself, which is monotone in t, so the range is
// exact even where the division rounds or a is tiny. An axis with
// a == 0 keeps or rejects the whole ray.
func clip(b, a float64, l, lo, hi int) (int, int) {
	fl := float64(l)
	if a == 0 {
		if b > -1 && b < fl {
			return lo, hi
		}
		return lo, lo
	}
	// q is the coordinate, negated when the ray runs down the axis so
	// that q never falls as t rises (the negation is exact): the kept
	// samples run from the first with q > enter to the first with
	// q ≥ leave.
	sgn, enter, leave := 1.0, -1.0, fl
	if a < 0 {
		sgn, enter, leave = -1, -fl, 1
	}
	q := func(t int) float64 { return sgn * (b + float64(t)*a) }
	s := guess(lo, hi, (sgn*enter-b)/a)
	for s > lo && q(s-1) > enter {
		s--
	}
	for s < hi && !(q(s) > enter) {
		s++
	}
	e := guess(s, hi, (sgn*leave-b)/a)
	for e > s && q(e-1) >= leave {
		e--
	}
	for e < hi && !(q(e) >= leave) {
		e++
	}
	return s, e
}

// guess clamps the slab bound t to [lo, hi]; a NaN bound gives hi.
func guess(lo, hi int, t float64) int {
	switch {
	case !(t < float64(hi)):
		return hi
	case t > float64(lo):
		return int(t)
	}
	return lo
}

// Fourier projects the density at orientation o through its centred
// 3-D DFT: extract the central section at o (band-limited to rmax) and
// inverse-transform it. vdft must be the centred spectrum of the map.
func Fourier(vdft *fourier.VolumeDFT, o geom.Euler, rmax float64, interp fourier.Interpolation) *volume.Image {
	slice := vdft.ExtractSlice(o, rmax, interp)
	return fourier.InverseImageDFT(slice)
}
