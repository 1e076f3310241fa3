package geom

import "math"

// Vec3 is a 3-vector of float64 components.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns s·a.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{s * a.X, s * a.Y, s * a.Z} }

// Dot returns the inner product a·b.
func (a Vec3) Dot(b Vec3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Norm returns the Euclidean length of a.
func (a Vec3) Norm() float64 { return math.Sqrt(a.Dot(a)) }

// Unit returns a scaled to unit length. The zero vector is returned
// unchanged.
func (a Vec3) Unit() Vec3 {
	n := a.Norm()
	if n == 0 {
		return a
	}
	return a.Scale(1 / n)
}

// Mat3 is a row-major 3x3 matrix.
type Mat3 [3][3]float64

// Identity3 returns the identity matrix.
func Identity3() Mat3 {
	return Mat3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
}

// Mul returns the matrix product a·b.
func (a Mat3) Mul(b Mat3) Mat3 {
	var c Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += a[i][k] * b[k][j]
			}
			c[i][j] = s
		}
	}
	return c
}

// Apply returns the matrix-vector product a·v.
func (a Mat3) Apply(v Vec3) Vec3 {
	return Vec3{
		a[0][0]*v.X + a[0][1]*v.Y + a[0][2]*v.Z,
		a[1][0]*v.X + a[1][1]*v.Y + a[1][2]*v.Z,
		a[2][0]*v.X + a[2][1]*v.Y + a[2][2]*v.Z,
	}
}

// Transpose returns the matrix transpose, which for a rotation matrix
// is its inverse.
func (a Mat3) Transpose() Mat3 {
	var t Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			t[i][j] = a[j][i]
		}
	}
	return t
}

// Det returns the determinant.
func (a Mat3) Det() float64 {
	return a[0][0]*(a[1][1]*a[2][2]-a[1][2]*a[2][1]) -
		a[0][1]*(a[1][0]*a[2][2]-a[1][2]*a[2][0]) +
		a[0][2]*(a[1][0]*a[2][1]-a[1][1]*a[2][0])
}

// Col returns column j of the matrix as a vector.
func (a Mat3) Col(j int) Vec3 {
	return Vec3{a[0][j], a[1][j], a[2][j]}
}

// Trace returns the sum of diagonal entries.
func (a Mat3) Trace() float64 { return a[0][0] + a[1][1] + a[2][2] }

// RotX returns the rotation by angle rad (radians) about the X axis.
func RotX(rad float64) Mat3 {
	s, c := math.Sincos(rad)
	return Mat3{
		{1, 0, 0},
		{0, c, -s},
		{0, s, c},
	}
}

// RotY returns the rotation by angle rad (radians) about the Y axis.
func RotY(rad float64) Mat3 {
	s, c := math.Sincos(rad)
	return Mat3{
		{c, 0, s},
		{0, 1, 0},
		{-s, 0, c},
	}
}

// RotZ returns the rotation by angle rad (radians) about the Z axis.
func RotZ(rad float64) Mat3 {
	s, c := math.Sincos(rad)
	return Mat3{
		{c, -s, 0},
		{s, c, 0},
		{0, 0, 1},
	}
}

// AxisAngle returns the rotation by angle rad (radians) about the unit
// axis. The axis is normalized internally.
func AxisAngle(axis Vec3, rad float64) Mat3 {
	u := axis.Unit()
	s, c := math.Sincos(rad)
	t := 1 - c
	return Mat3{
		{t*u.X*u.X + c, t*u.X*u.Y - s*u.Z, t*u.X*u.Z + s*u.Y},
		{t*u.X*u.Y + s*u.Z, t*u.Y*u.Y + c, t*u.Y*u.Z - s*u.X},
		{t*u.X*u.Z - s*u.Y, t*u.Y*u.Z + s*u.X, t*u.Z*u.Z + c},
	}
}

// IsRotation reports whether a is orthonormal with determinant +1 to
// within tol.
func (a Mat3) IsRotation(tol float64) bool {
	p := a.Mul(a.Transpose())
	id := Identity3()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(p[i][j]-id[i][j]) > tol {
				return false
			}
		}
	}
	return math.Abs(a.Det()-1) <= tol
}

// RotationAngle returns the rotation angle of a in radians, in [0, π].
// For numerical robustness near 0 it uses ‖a − I‖_F = 2√2·sin(θ/2)
// rather than the ill-conditioned acos of the trace.
func (a Mat3) RotationAngle() float64 {
	id := Identity3()
	var fro float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			d := a[i][j] - id[i][j]
			fro += d * d
		}
	}
	s := math.Min(1, math.Sqrt(fro)/(2*math.Sqrt2))
	return 2 * math.Asin(s)
}
