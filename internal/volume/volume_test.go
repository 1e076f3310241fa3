package volume

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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

func TestLowPass(t *testing.T) {
	g := NewCGrid(8)
	for i := range g.Data {
		g.Data[i] = 1
	}
	g.LowPass(2)
	if g.At(0, 0, 0) != 1 {
		t.Error("DC removed")
	}
	if g.At(2, 0, 0) != 1 || g.At(0, 6, 0) != 1 { // freq (0,-2,0)
		t.Error("in-band coefficient removed")
	}
	if g.At(3, 0, 0) != 0 || g.At(2, 2, 7) != 0 {
		t.Error("out-of-band coefficient kept")
	}
}

func TestCGridEnergyQuick(t *testing.T) {
	f := func(re, im float64) bool {
		// Fold arbitrary inputs into a safe range to avoid overflow.
		re, im = math.Mod(re, 1e6), math.Mod(im, 1e6)
		g := NewCGrid(2)
		g.Data[3] = complex(re, im)
		want := re*re + im*im
		return math.Abs(g.Energy()-want) <= 1e-12*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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

func TestGridDownsample(t *testing.T) {
	g := NewGrid(8)
	for i := range g.Data {
		g.Data[i] = float64(i)
	}
	d := g.Downsample(2)
	if d.L != 4 {
		t.Fatalf("downsampled size %d, want 4", d.L)
	}
	// First output voxel averages the (0..1)³ block.
	var want float64
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			for z := 0; z < 2; z++ {
				want += g.At(x, y, z)
			}
		}
	}
	want /= 8
	if math.Abs(d.At(0, 0, 0)-want) > 1e-12 {
		t.Fatalf("voxel (0,0,0) = %g, want %g", d.At(0, 0, 0), want)
	}
	// Mass is preserved under averaging x scale change.
	var sumIn, sumOut float64
	for _, v := range g.Data {
		sumIn += v
	}
	for _, v := range d.Data {
		sumOut += v
	}
	if math.Abs(sumOut*8-sumIn) > 1e-9*sumIn {
		t.Fatal("downsampling lost mass")
	}
}

func TestImageDownsample(t *testing.T) {
	im := NewImage(6)
	for i := range im.Data {
		im.Data[i] = 2
	}
	d := im.Downsample(3)
	if d.L != 2 {
		t.Fatalf("size %d, want 2", d.L)
	}
	for _, v := range d.Data {
		if math.Abs(v-2) > 1e-12 {
			t.Fatal("constant image not preserved")
		}
	}
}

func TestDownsampleRejectsBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-divisor factor accepted")
		}
	}()
	NewGrid(9).Downsample(2)
}
