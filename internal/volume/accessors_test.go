package volume

import (
	"math"
	"math/rand"
	"testing"
)

func TestImageAccessors(t *testing.T) {
	im := NewImage(5)
	im.Set(2, 3, 7)
	im.Add(2, 3, 1)
	if im.At(2, 3) != 8 {
		t.Fatal("Add failed")
	}
	if im.Data[im.Index(2, 3)] != 8 {
		t.Fatal("Index inconsistent")
	}
	if im.Center() != 2 {
		t.Fatalf("Center = %d", im.Center())
	}
	c := im.Clone()
	c.Set(0, 0, 5)
	if im.At(0, 0) == 5 {
		t.Fatal("Clone aliases original")
	}
}

func TestCImageAccessors(t *testing.T) {
	im := NewCImage(4)
	im.Set(1, 2, 5+6i)
	if im.At(1, 2) != 5+6i {
		t.Fatal("Set/At mismatch")
	}
	if im.Data[im.Index(1, 2)] != 5+6i {
		t.Fatal("Index inconsistent")
	}
	c := im.Clone()
	c.Set(0, 0, 1)
	if im.At(0, 0) == 1 {
		t.Fatal("Clone aliases original")
	}
	if got := im.Energy(); math.Abs(got-61) > 1e-12 {
		t.Fatalf("Energy = %g, want 61", got)
	}
	r := im.Real()
	if r.At(1, 2) != 5 {
		t.Fatal("Real extracted wrong component")
	}
}

func TestAddGridAndScale(t *testing.T) {
	a := NewGrid(3)
	b := NewGrid(3)
	a.Set(1, 1, 1, 2)
	b.Set(1, 1, 1, 3)
	a.AddGrid(b)
	if a.At(1, 1, 1) != 5 {
		t.Fatal("AddGrid failed")
	}
	a.Scale(2)
	if a.At(1, 1, 1) != 10 {
		t.Fatal("Scale failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch accepted")
		}
	}()
	a.AddGrid(NewGrid(4))
}

func TestRotateIdentityAndInverse(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	g := NewGrid(12)
	// Smooth content away from edges so rotation resampling is clean.
	for x := 3; x < 9; x++ {
		for y := 3; y < 9; y++ {
			for z := 3; z < 9; z++ {
				g.Set(x, y, z, r.Float64())
			}
		}
	}
	id := [3][3]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	rot := g.Rotate(id)
	for i := range g.Data {
		if math.Abs(rot.Data[i]-g.Data[i]) > 1e-12 {
			t.Fatal("identity rotation changed the grid")
		}
	}
}

func TestNewGridPanicsOnBadSize(t *testing.T) {
	for _, f := range []func(){
		func() { NewGrid(0) },
		func() { NewImage(0) },
		func() { NewCImage(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad size accepted")
				}
			}()
			f()
		}()
	}
}

func TestImageCorrelationMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch accepted")
		}
	}()
	ImageCorrelation(NewImage(4), NewImage(5))
}

func TestGridStats(t *testing.T) {
	g := NewGrid(2)
	for i := range g.Data {
		g.Data[i] = float64(i)
	}
	min, max, mean, std := g.Stats()
	if min != 0 || max != 7 || math.Abs(mean-3.5) > 1e-12 {
		t.Fatalf("stats min=%g max=%g mean=%g", min, max, mean)
	}
	if std <= 0 {
		t.Fatal("zero std for varying data")
	}
}
