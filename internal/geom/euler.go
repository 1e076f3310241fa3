// Package geom provides the geometric machinery for orientation
// refinement: Euler angles in the paper's (θ, φ, ω) convention, 3x3
// rotation matrices, angular metrics, orientation grids and windows,
// and the point-symmetry groups of virus capsids (C_n, D_n, T, O, I).
//
// Convention. An orientation O = (θ, φ, ω), all in degrees, describes a
// view of the electron-density map D. θ is the polar angle measured
// from the +Z axis, φ the azimuth measured from +X in the XY plane, and
// ω the in-plane rotation of the image about the view axis. The
// associated rotation matrix is
//
//	R(θ, φ, ω) = Rz(φ) · Ry(θ) · Rz(ω)
//
// whose columns are the view-frame axes expressed in map coordinates:
// column 2 (the rotated Z axis) is the direction of projection
// (sinθ·cosφ, sinθ·sinφ, cosθ), independent of ω. The 2-D image of a
// particle at orientation O is the line integral of D along that axis,
// and by the projection-slice theorem its 2-D DFT equals the central
// section of the 3-D DFT spanned by columns 0 and 1 of R.
package geom

import (
	"fmt"
	"math"
)

// DegToRad converts degrees to radians.
func DegToRad(d float64) float64 { return d * math.Pi / 180 }

// RadToDeg converts radians to degrees.
func RadToDeg(r float64) float64 { return r * 180 / math.Pi }

// Euler is an orientation (θ, φ, ω) in degrees as used throughout the
// paper: θ ∈ [0, 180], φ ∈ [0, 360), ω ∈ [0, 360). Values outside the
// canonical ranges are accepted everywhere and normalized on demand.
type Euler struct {
	Theta, Phi, Omega float64
}

// String renders the orientation the way the paper's figures do.
func (e Euler) String() string {
	return fmt.Sprintf("(θ=%.4g°, φ=%.4g°, ω=%.4g°)", e.Theta, e.Phi, e.Omega)
}

// Finite reports whether all three angles are finite in radians. A NaN
// or infinite angle, or one so large its radian value overflows, has no
// rotation matrix: Matrix would return NaNs.
func (e Euler) Finite() bool {
	for _, a := range [3]float64{e.Theta, e.Phi, e.Omega} {
		if r := DegToRad(a); math.IsNaN(r) || math.IsInf(r, 0) {
			return false
		}
	}
	return true
}

// Matrix returns the rotation matrix R(θ, φ, ω) = Rz(φ)·Ry(θ)·Rz(ω).
func (e Euler) Matrix() Mat3 {
	return RotZ(DegToRad(e.Phi)).Mul(RotY(DegToRad(e.Theta))).Mul(RotZ(DegToRad(e.Omega)))
}

// ViewAxis returns the unit direction of projection for the view, the
// rotated Z axis (sinθ·cosφ, sinθ·sinφ, cosθ).
func (e Euler) ViewAxis() Vec3 {
	st, ct := math.Sincos(DegToRad(e.Theta))
	sp, cp := math.Sincos(DegToRad(e.Phi))
	return Vec3{st * cp, st * sp, ct}
}

// Add returns the component-wise sum; useful for applying window offsets.
func (e Euler) Add(d Euler) Euler {
	return Euler{e.Theta + d.Theta, e.Phi + d.Phi, e.Omega + d.Omega}
}

// Normalize returns an equivalent orientation with θ folded into
// [0, 180] and φ, ω wrapped into [0, 360). Folding θ across a pole
// uses the identity Rz(φ)·Ry(θ)·Rz(ω) = Rz(φ+180°)·Ry(−θ)·Rz(ω+180°).
func (e Euler) Normalize() Euler {
	th := math.Mod(e.Theta, 360)
	if th < 0 {
		th += 360
	}
	ph, om := e.Phi, e.Omega
	if th > 180 {
		th = 360 - th
		ph += 180
		om += 180
	}
	ph = math.Mod(ph, 360)
	if ph < 0 {
		ph += 360
	}
	om = math.Mod(om, 360)
	if om < 0 {
		om += 360
	}
	return Euler{th, ph, om}
}

// FromMatrix recovers Euler angles from a rotation matrix produced by
// Euler.Matrix. At the poles (θ = 0 or 180) the decomposition is
// degenerate; φ is then reported as 0 and ω carries the full in-plane
// rotation.
func FromMatrix(r Mat3) Euler {
	// r[2][2] = cosθ.
	ct := math.Max(-1, math.Min(1, r[2][2]))
	theta := math.Acos(ct)
	var phi, omega float64
	if math.Abs(math.Sin(theta)) < 1e-12 {
		// Degenerate: R = Rz(φ ± ω). Attribute everything to ω.
		phi = 0
		if ct > 0 {
			omega = math.Atan2(r[1][0], r[0][0])
		} else {
			omega = math.Atan2(r[1][0], -r[0][0])
		}
	} else {
		phi = math.Atan2(r[1][2], r[0][2])
		omega = math.Atan2(r[2][1], -r[2][0])
	}
	return Euler{RadToDeg(theta), RadToDeg(phi), RadToDeg(omega)}.Normalize()
}

// AngularDistance returns the geodesic rotation angle, in degrees,
// between two orientations: the angle of the rotation R_a^T · R_b.
// It is the natural metric on SO(3) and is zero iff the two
// orientations describe the same view including in-plane rotation.
func AngularDistance(a, b Euler) float64 {
	ra, rb := a.Matrix(), b.Matrix()
	rel := ra.Transpose().Mul(rb)
	return RadToDeg(rel.RotationAngle())
}
