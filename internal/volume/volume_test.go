package volume

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func randomGrid(r *rand.Rand, l int) *Grid {
	g := NewGrid(l)
	for i := range g.Data {
		g.Data[i] = r.NormFloat64()
	}
	return g
}

func randomImage(r *rand.Rand, l int) *Image {
	im := NewImage(l)
	for i := range im.Data {
		im.Data[i] = r.NormFloat64()
	}
	return im
}

func TestGridIndexing(t *testing.T) {
	g := NewGrid(5)
	g.Set(1, 2, 3, 42)
	if g.At(1, 2, 3) != 42 {
		t.Fatal("Set/At mismatch")
	}
	if g.Data[g.Index(1, 2, 3)] != 42 {
		t.Fatal("Index inconsistent with Set")
	}
	g.Add(1, 2, 3, 8)
	if g.At(1, 2, 3) != 50 {
		t.Fatal("Add failed")
	}
}

func TestGridInterpAtLatticePoints(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := randomGrid(r, 6)
	for x := 0; x < 6; x++ {
		for y := 0; y < 6; y++ {
			for z := 0; z < 6; z++ {
				if got := g.Interp(float64(x), float64(y), float64(z)); math.Abs(got-g.At(x, y, z)) > 1e-12 {
					t.Fatalf("Interp at lattice point (%d,%d,%d) = %g, want %g", x, y, z, got, g.At(x, y, z))
				}
			}
		}
	}
}

func TestGridInterpLinearFunction(t *testing.T) {
	// Trilinear interpolation reproduces affine functions exactly.
	g := NewGrid(8)
	f := func(x, y, z float64) float64 { return 2*x - 3*y + 0.5*z + 7 }
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			for z := 0; z < 8; z++ {
				g.Set(x, y, z, f(float64(x), float64(y), float64(z)))
			}
		}
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		x, y, z := r.Float64()*6, r.Float64()*6, r.Float64()*6
		if got := g.Interp(x, y, z); math.Abs(got-f(x, y, z)) > 1e-9 {
			t.Fatalf("Interp(%g,%g,%g) = %g, want %g", x, y, z, got, f(x, y, z))
		}
	}
}

func TestGridInterpOutsideIsZero(t *testing.T) {
	g := NewGrid(4)
	for i := range g.Data {
		g.Data[i] = 1
	}
	if g.Interp(-2, 1, 1) != 0 || g.Interp(1, 10, 1) != 0 {
		t.Fatal("points outside lattice must contribute zero")
	}
}

// TestGridInterpSignedZeroAndZeroWeights checks the two properties that
// make Interp's interior path and corner loop agree bit for bit: the
// sum starts at +0, so eight −0 corners give +0 (Rotate stores that
// result as a voxel), and a corner with zero weight is skipped, not
// multiplied, so an infinite voxel there leaves the sample finite.
func TestGridInterpSignedZeroAndZeroWeights(t *testing.T) {
	g := NewGrid(4)
	for i := range g.Data {
		g.Data[i] = math.Copysign(0, -1)
	}
	for _, p := range [][3]float64{{1.25, 1.5, 1.75}, {1, 1, 1}, {2.5, 0.5, 1}} {
		if got := g.Interp(p[0], p[1], p[2]); math.Float64bits(got) != 0 {
			t.Fatalf("Interp%v on a −0 grid = %v (%#x), want +0", p, got, math.Float64bits(got))
		}
	}
	for i := range g.Data {
		g.Data[i] = 1
	}
	g.Set(2, 2, 2, math.Inf(1))
	for _, p := range [][3]float64{{1.5, 1.5, 1}, {1, 1.5, 1.5}, {1.5, 1, 1.5}, {1, 1, 1}} {
		if got := g.Interp(p[0], p[1], p[2]); got != 1 {
			t.Fatalf("Interp%v beside an Inf voxel at a zero-weight corner = %v, want 1", p, got)
		}
	}
	if got := g.Interp(1.5, 1.5, 1.5); !math.IsInf(got, 1) {
		t.Fatalf("Interp with an Inf voxel at a weighted corner = %v, want +Inf", got)
	}
}

func TestSphericalMask(t *testing.T) {
	g := NewGrid(9)
	for i := range g.Data {
		g.Data[i] = 1
	}
	g.SphericalMask(2)
	c := g.Center()
	if g.At(c, c, c) != 1 {
		t.Error("centre voxel masked out")
	}
	if g.At(c+2, c, c) != 1 {
		t.Error("voxel at radius 2 masked out")
	}
	if g.At(c+3, c, c) != 0 || g.At(0, 0, 0) != 0 {
		t.Error("voxel beyond radius not masked")
	}
}

func TestCorrelationProperties(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randomGrid(r, 6)
	if c := Correlation(a, a); math.Abs(c-1) > 1e-12 {
		t.Errorf("self-correlation = %g, want 1", c)
	}
	b := a.Clone()
	b.Scale(-2)
	if c := Correlation(a, b); math.Abs(c+1) > 1e-12 {
		t.Errorf("anti-correlation = %g, want -1", c)
	}
	// Correlation is invariant under affine rescaling.
	d := a.Clone()
	d.Scale(3.7)
	for i := range d.Data {
		d.Data[i] += 11
	}
	if c := Correlation(a, d); math.Abs(c-1) > 1e-12 {
		t.Errorf("affine-invariance violated: %g", c)
	}
}

func TestGridRoundTripIO(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := randomGrid(r, 7)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGrid(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.L != g.L {
		t.Fatalf("size %d, want %d", got.L, g.L)
	}
	for i := range g.Data {
		if got.Data[i] != g.Data[i] {
			t.Fatalf("voxel %d: %g != %g", i, got.Data[i], g.Data[i])
		}
	}
}

func TestReadGridRejectsGarbage(t *testing.T) {
	if _, err := ReadGrid(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadGrid(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestWritePGMHeader(t *testing.T) {
	im := NewImage(4)
	var buf bytes.Buffer
	if err := im.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	want := "P5\n4 4\n255\n"
	if got := buf.String()[:len(want)]; got != want {
		t.Fatalf("PGM header %q, want %q", got, want)
	}
	if buf.Len() != len(want)+16 {
		t.Fatalf("PGM size %d, want %d", buf.Len(), len(want)+16)
	}
}

func TestImageNormalize(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	im := randomImage(r, 10)
	im.Scale(5)
	for i := range im.Data {
		im.Data[i] += 3
	}
	im.Normalize()
	_, _, mean, std := im.Stats()
	if math.Abs(mean) > 1e-12 || math.Abs(std-1) > 1e-12 {
		t.Fatalf("normalized stats mean=%g std=%g", mean, std)
	}
	flat := NewImage(3)
	flat.Normalize() // must not divide by zero
	if _, _, m, _ := flat.Stats(); m != 0 {
		t.Fatal("flat image normalize broken")
	}
}

func TestImageShiftRoundTrip(t *testing.T) {
	// Integer shifts of an interior feature are exactly reversible.
	im := NewImage(16)
	im.Set(8, 8, 1)
	im.Set(8, 9, 2)
	shifted := im.Shift(2, -3)
	if shifted.At(10, 5) != 1 || shifted.At(10, 6) != 2 {
		t.Fatal("integer shift misplaced pixels")
	}
	back := shifted.Shift(-2, 3)
	if ImageCorrelation(im, back) < 1-1e-12 {
		t.Fatal("shift round-trip lost data")
	}
}

func TestCenterOfMass(t *testing.T) {
	im := NewImage(17)
	im.Set(4, 11, 5)
	cx, cy := im.CenterOfMass()
	if math.Abs(cx-4) > 1e-9 || math.Abs(cy-11) > 1e-9 {
		t.Fatalf("centroid (%g,%g), want (4,11)", cx, cy)
	}
}

func TestZSection(t *testing.T) {
	g := NewGrid(4)
	g.Set(1, 2, 3, 9)
	im := g.ZSection(3)
	if im.At(1, 2) != 9 {
		t.Fatal("ZSection misplaced voxel")
	}
	if im.At(1, 1) != 0 {
		t.Fatal("ZSection contaminated")
	}
}
