package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestGroupOrders(t *testing.T) {
	cases := []struct {
		g    *Group
		want int
	}{
		{Cyclic(1), 1},
		{Cyclic(5), 5},
		{Cyclic(7), 7},
		{Dihedral(2), 4},
		{Dihedral(5), 10},
		{Tetrahedral(), 12},
		{Octahedral(), 24},
		{Icosahedral(), 60},
	}
	for _, c := range cases {
		if c.g.Order() != c.want {
			t.Errorf("%s: order %d, want %d", c.g.Name, c.g.Order(), c.want)
		}
	}
}

func TestGroupClosureProperty(t *testing.T) {
	for _, g := range []*Group{Cyclic(6), Dihedral(3), Tetrahedral(), Octahedral(), Icosahedral()} {
		keys := map[[9]int32]bool{}
		for _, e := range g.Elements {
			keys[matKey(e)] = true
		}
		for i, a := range g.Elements {
			if !a.IsRotation(1e-9) {
				t.Fatalf("%s element %d is not a rotation", g.Name, i)
			}
			for _, b := range g.Elements {
				if !keys[matKey(a.Mul(b))] {
					t.Fatalf("%s not closed under multiplication", g.Name)
				}
			}
			if !keys[matKey(a.Transpose())] {
				t.Fatalf("%s missing inverse of element %d", g.Name, i)
			}
		}
	}
}

func TestGroupIdentityFirst(t *testing.T) {
	for _, g := range []*Group{Cyclic(4), Dihedral(7), Icosahedral()} {
		if g.Elements[0] != Identity3() {
			t.Errorf("%s: Elements[0] is not the identity", g.Name)
		}
	}
}

func TestIcosahedralHasExpectedAxes(t *testing.T) {
	g := Icosahedral()
	// I has 15 elements of order 2, 20 of order 3, 24 of order 5 and
	// the identity — classify by matrix order.
	counts := map[int]int{}
	idKey := matKey(Identity3())
	for _, e := range g.Elements {
		p := e
		order := 1
		for order < 10 && matKey(p) != idKey {
			p = p.Mul(e)
			order++
		}
		counts[order]++
	}
	want := map[int]int{1: 1, 2: 15, 3: 20, 5: 24}
	for order, n := range want {
		if counts[order] != n {
			t.Errorf("order-%d elements: %d, want %d", order, counts[order], n)
		}
	}
	if len(counts) != len(want) {
		t.Errorf("unexpected element orders present: %v", counts)
	}
}

func TestAsymmetricUnitFraction(t *testing.T) {
	// The asymmetric unit should contain ~1/|G| of uniformly random
	// directions.
	r := rand.New(rand.NewSource(11))
	for _, g := range []*Group{Cyclic(1), Cyclic(5), Dihedral(3), Icosahedral()} {
		in, total := 0, 20000
		for i := 0; i < total; i++ {
			d := randomDirection(r)
			if g.InAsymmetricUnit(d) {
				in++
			}
		}
		want := float64(total) / float64(g.Order())
		got := float64(in)
		if math.Abs(got-want) > 6*math.Sqrt(want) {
			t.Errorf("%s: %d of %d directions in asym unit, want ≈%.0f", g.Name, in, total, want)
		}
	}
}

func TestCanonicalIsOrbitInvariant(t *testing.T) {
	g := Icosahedral()
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 100; i++ {
		d := randomDirection(r)
		c := g.Canonical(d)
		for _, e := range g.Elements {
			c2 := g.Canonical(e.Apply(d))
			if c.Sub(c2).Norm() > 1e-6 {
				t.Fatalf("canonical rep differs across orbit: %v vs %v", c, c2)
			}
		}
		if !g.InAsymmetricUnit(c) {
			t.Fatalf("canonical rep %v not in asymmetric unit", c)
		}
	}
}

func randomDirection(r *rand.Rand) Vec3 {
	for {
		v := Vec3{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		if n := v.Norm(); n > 1e-6 {
			return v.Scale(1 / n)
		}
	}
}
