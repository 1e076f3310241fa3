package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randEuler(r *rand.Rand) Euler {
	return Euler{r.Float64() * 180, r.Float64() * 360, r.Float64() * 360}
}

func TestMatrixIsRotation(t *testing.T) {
	f := func(th, ph, om float64) bool {
		e := Euler{math.Mod(math.Abs(th), 180), math.Mod(ph, 360), math.Mod(om, 360)}
		return e.Matrix().IsRotation(1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		e := randEuler(r)
		got := FromMatrix(e.Matrix())
		if d := AngularDistance(e, got); d > 1e-6 {
			t.Fatalf("round-trip %v -> %v differs by %g°", e, got, d)
		}
	}
}

func TestMatrixRoundTripAtPoles(t *testing.T) {
	for _, e := range []Euler{
		{0, 0, 33},
		{0, 120, 33},
		{180, 45, 270},
		{180, 0, 0},
	} {
		got := FromMatrix(e.Matrix())
		if d := AngularDistance(e, got); d > 1e-6 {
			t.Fatalf("pole round-trip %v -> %v differs by %g°", e, got, d)
		}
	}
}

func TestViewAxisMatchesMatrixColumn(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		e := randEuler(r)
		m := e.Matrix()
		want := m.Col(2)
		got := e.ViewAxis()
		if got.Sub(want).Norm() > 1e-12 {
			t.Fatalf("%v: view axis %v != matrix column %v", e, got, want)
		}
	}
}

func TestViewAxisIgnoresOmega(t *testing.T) {
	e := Euler{50, 120, 0}
	for om := 0.0; om < 360; om += 17 {
		a := Euler{e.Theta, e.Phi, om}.ViewAxis()
		if a.Sub(e.ViewAxis()).Norm() > 1e-12 {
			t.Fatalf("view axis changed with ω=%g", om)
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want Euler }{
		{Euler{190, 10, 0}, Euler{170, 190, 180}},
		{Euler{-10, 0, 0}, Euler{10, 180, 180}},
		{Euler{90, 370, -30}, Euler{90, 10, 330}},
		{Euler{90, -10, 0}, Euler{90, 350, 0}},
	}
	for _, c := range cases {
		got := c.in.Normalize()
		if math.Abs(got.Theta-c.want.Theta) > 1e-9 ||
			math.Abs(got.Phi-c.want.Phi) > 1e-9 ||
			math.Abs(got.Omega-c.want.Omega) > 1e-9 {
			t.Errorf("Normalize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalizePreservesOrientation(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		e := Euler{r.Float64()*720 - 360, r.Float64()*720 - 360, r.Float64()*720 - 360}
		if d := AngularDistance(e, e.Normalize()); d > 1e-6 {
			t.Fatalf("Normalize(%v) moved orientation by %g°", e, d)
		}
	}
}

func TestAngularDistanceProperties(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 200; i++ {
		a, b := randEuler(r), randEuler(r)
		dab := AngularDistance(a, b)
		dba := AngularDistance(b, a)
		if math.Abs(dab-dba) > 1e-9 {
			t.Fatalf("asymmetric: d(a,b)=%g d(b,a)=%g", dab, dba)
		}
		if dab < 0 || dab > 180+1e-9 {
			t.Fatalf("out of range: %g", dab)
		}
		if AngularDistance(a, a) > 1e-9 {
			t.Fatalf("d(a,a) != 0")
		}
	}
}

func TestAngularDistanceKnown(t *testing.T) {
	a := Euler{0, 0, 0}
	b := Euler{0, 0, 90}
	if d := AngularDistance(a, b); math.Abs(d-90) > 1e-9 {
		t.Errorf("in-plane 90° rotation: got %g", d)
	}
	c := Euler{45, 0, 0}
	if d := AngularDistance(a, c); math.Abs(d-45) > 1e-9 {
		t.Errorf("45° tilt: got %g", d)
	}
}

func TestRotationAngle(t *testing.T) {
	for _, deg := range []float64{0, 10, 90, 179} {
		m := RotZ(DegToRad(deg))
		if got := RadToDeg(m.RotationAngle()); math.Abs(got-deg) > 1e-9 {
			t.Errorf("RotationAngle(RotZ(%g°)) = %g", deg, got)
		}
	}
}

func TestAxisAngleAgreesWithElementary(t *testing.T) {
	for rad := 0.1; rad < 3; rad += 0.37 {
		cases := []struct{ a, b Mat3 }{
			{AxisAngle(Vec3{1, 0, 0}, rad), RotX(rad)},
			{AxisAngle(Vec3{0, 1, 0}, rad), RotY(rad)},
			{AxisAngle(Vec3{0, 0, 1}, rad), RotZ(rad)},
		}
		for _, c := range cases {
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					if math.Abs(c.a[i][j]-c.b[i][j]) > 1e-12 {
						t.Fatalf("AxisAngle mismatch at rad=%g", rad)
					}
				}
			}
		}
	}
}

func TestVec3Ops(t *testing.T) {
	a, b := Vec3{1, 2, 3}, Vec3{4, 5, 6}
	if math.Abs(a.Unit().Norm()-1) > 1e-12 {
		t.Error("unit vector not unit length")
	}
	if (Vec3{}).Unit() != (Vec3{}) {
		t.Error("zero vector Unit changed value")
	}
	if a.Add(b).Sub(b).Sub(a).Norm() > 1e-12 {
		t.Error("add/sub inconsistent")
	}
}

// TestEulerFinite: an orientation is finite only when every angle has a
// finite radian value, so Matrix is a rotation; an angle whose
// conversion to radians overflows is refused like an infinite one.
func TestEulerFinite(t *testing.T) {
	for _, c := range []struct {
		e    Euler
		want bool
	}{
		{Euler{10, 20, 30}, true},
		{Euler{-1e300, 720, 0}, true},
		{Euler{math.NaN(), 0, 0}, false},
		{Euler{0, math.Inf(1), 0}, false},
		{Euler{0, 0, math.Inf(-1)}, false},
		{Euler{0, 0, math.MaxFloat64}, false},
	} {
		if got := c.e.Finite(); got != c.want {
			t.Errorf("%v.Finite() = %t, want %t", c.e, got, c.want)
		}
		if c.want {
			for _, v := range c.e.Matrix() {
				for _, x := range v {
					if math.IsNaN(x) || math.IsInf(x, 0) {
						t.Errorf("%v is Finite but its matrix holds %v", c.e, x)
					}
				}
			}
		}
	}
}
