// Package projection computes 2-D projections of a 3-D electron
// density, in two independent ways:
//
//   - Real: direct line integration through the density grid along the
//     view axis, sampling by trilinear interpolation. Each ray sums
//     only the samples that lie in the box and near the ball that
//     holds the map's nonzero voxels (a Density carries that ball's
//     radius); every other sample is an exact +0. This is how the
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
	"math"

	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/volume"
)

// Density is a map prepared for Real: the grid and the radius of its
// support, the ball about the box centre (voxel l/2 on each axis) that
// holds every voxel that is not ±0.
type Density struct {
	g *volume.Grid
	// r is the largest distance from the box centre of a voxel that is
	// not ±0 (NaN and ±Inf count); −1 when every voxel is ±0.
	r float64
}

// NewDensity measures g's support in one pass over its voxels. g must
// not change while the Density is in use.
func NewDensity(g *volume.Grid) Density {
	return Density{g: g, r: supportRadius(g)}
}

// supportRadius is the largest distance from the box centre of any
// voxel of g that is not ±0, or −1 if there is none. v != 0 holds for
// NaN and ±Inf and fails only for ±0.
func supportRadius(g *volume.Grid) float64 {
	l := g.L
	c := l / 2
	r2 := -1
	for x := 0; x < l; x++ {
		for y := 0; y < l; y++ {
			row := g.Data[(x*l+y)*l : (x*l+y+1)*l]
			for z, v := range row {
				if v != 0 {
					dx, dy, dz := x-c, y-c, z-c
					r2 = max(r2, dx*dx+dy*dy+dz*dz)
				}
			}
		}
	}
	if r2 < 0 {
		return -1
	}
	return math.Sqrt(float64(r2))
}

// Real projects the density d at orientation o by integrating along
// the view axis. Pixel (j,k) of the result is the sum over t of the
// density at center + (j−c)·x̂' + (k−c)·ŷ' + t·ẑ', with t running over
// the box, −l/2 ≤ t < l − l/2. Each ray sums only the samples that can
// be nonzero: the ones within r + 2 voxels of the box centre (sphere)
// and the ones that can touch the grid (clip). A skipped sample is an
// exact +0 — off the grid, or with all eight corners farther than r
// from the centre, so every corner is ±0 — and a sum that starts at +0
// is never −0, so skipping it moves no bit. Where the CPU runs AVX2,
// the samples go four at a time through the ray kernel (see project).
func Real(d Density, o geom.Euler) *volume.Image {
	return project(d, o, haveRayKernel)
}

// project is Real, with the ray kernel or without it. With it, each
// ray's samples run in groups of four through rayAVX2, which computes
// Interp's straight-line value on each lane and adds the lanes to the
// sum in t order; a group with any lane off that path, and the last
// n mod 4 samples, go through Interp here, in t order. Both ways every
// sample adds Interp's value at the same position to the same sum in
// the same order, so the image is the same bit for bit. The kernel's
// corner index is int32, so it runs only while l³ < 2³¹.
func project(d Density, o geom.Euler, vector bool) *volume.Image {
	g := d.g
	l := g.L
	c := float64(l / 2)
	centre := geom.Vec3{X: c, Y: c, Z: c}
	reach := d.r + 2
	m := o.Matrix()
	xa, ya, za := m.Col(0), m.Col(1), m.Col(2)
	out := volume.NewImage(l)
	half := l / 2
	vector = vector && l*l*l < 1<<31
	for j := 0; j < l; j++ {
		u := float64(j) - c
		for k := 0; k < l; k++ {
			v := float64(k) - c
			// Base point of the ray in map coordinates.
			base := centre.
				Add(xa.Scale(u)).
				Add(ya.Scale(v))
			lo, hi := sphere(base.Sub(centre), za, reach, -half, l-half)
			lo, hi = clip(base.X, za.X, l, lo, hi)
			lo, hi = clip(base.Y, za.Y, l, lo, hi)
			lo, hi = clip(base.Z, za.Z, l, lo, hi)
			var sum float64
			for t := lo; t < hi; {
				// n is how many samples go through Interp next: all of
				// them without the kernel; with it, the group it
				// stopped at, or the ray's last n mod 4.
				n := hi - t
				if vector && n >= 4 {
					var done int
					sum, done = rayAVX2(&g.Data[0], l, base.X, base.Y, base.Z, za.X, za.Y, za.Z, t, n/4, sum)
					t += 4 * done
					n = min(hi-t, 4)
				}
				for e := t + n; t < e; t++ {
					p := base.Add(za.Scale(float64(t)))
					sum += g.Interp(p.X, p.Y, p.Z)
				}
			}
			out.Set(j, k, sum)
		}
	}
	return out
}

// sphere narrows the sample range [lo, hi) of one ray, whose sample t
// sits at b + t·a relative to the box centre, to the samples with
// |b + t·a| ≤ reach: the roots of |a|²t² + 2(b·a)t + |b|² − reach² = 0,
// rounded outward. A ray that misses the ball keeps no sample; a NaN
// root keeps the whole range. Real passes reach = r + 2, which leaves
// 2 − √3 ≈ 0.27 voxel between a skipped sample's nearest corner and the
// support, far above the rounding of the roots, so the range is only
// ever wider than the exact one, never narrower.
func sphere(b, a geom.Vec3, reach float64, lo, hi int) (int, int) {
	qa, qb, qc := a.Dot(a), b.Dot(a), b.Dot(b)-reach*reach
	disc := qb*qb - qa*qc
	if disc < 0 {
		return lo, lo
	}
	s := math.Sqrt(disc)
	if t := math.Floor((-qb - s) / qa); t > float64(lo) {
		lo = int(min(t, float64(hi)))
	}
	if t := math.Ceil((-qb+s)/qa) + 1; t < float64(hi) {
		hi = int(max(t, float64(lo)))
	}
	return lo, hi
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
