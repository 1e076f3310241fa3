package projection

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/volume"
)

// realReference is Real without the ray clip: every ray marches the
// whole box, one interpReference call per sample.
func realReference(g *volume.Grid, o geom.Euler) *volume.Image {
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
			base := geom.Vec3{X: c, Y: c, Z: c}.
				Add(xa.Scale(u)).
				Add(ya.Scale(v))
			var sum float64
			for t := -half; t < l-half; t++ {
				p := base.Add(za.Scale(float64(t)))
				sum += interpReference(g, p.X, p.Y, p.Z)
			}
			out.Set(j, k, sum)
		}
	}
	return out
}

// interpReference is volume.Grid.Interp's 2×2×2 corner loop alone,
// without the straight-line interior path.
func interpReference(g *volume.Grid, x, y, z float64) float64 {
	l := g.L
	x0, y0, z0 := int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z))
	fx, fy, fz := x-float64(x0), y-float64(y0), z-float64(z0)
	var sum float64
	for dx := 0; dx <= 1; dx++ {
		wx := 1 - fx
		if dx == 1 {
			wx = fx
		}
		xi := x0 + dx
		if xi < 0 || xi >= l || wx == 0 {
			continue
		}
		for dy := 0; dy <= 1; dy++ {
			wy := 1 - fy
			if dy == 1 {
				wy = fy
			}
			yi := y0 + dy
			if yi < 0 || yi >= l || wy == 0 {
				continue
			}
			for dz := 0; dz <= 1; dz++ {
				wz := 1 - fz
				if dz == 1 {
					wz = fz
				}
				zi := z0 + dz
				if zi < 0 || zi >= l || wz == 0 {
					continue
				}
				sum += wx * wy * wz * g.At(xi, yi, zi)
			}
		}
	}
	return sum
}

// seededGrid fills an l³ grid from seed with values of both signs.
// With specials, about one voxel in eight is −0 and one in forty is
// ±Inf, so zero-weight corners that a path multiplied instead of
// skipping would turn into NaN.
func seededGrid(l int, seed int64, specials bool) *volume.Grid {
	rng := rand.New(rand.NewSource(seed))
	g := volume.NewGrid(l)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
		if !specials {
			continue
		}
		switch r := rng.Intn(40); {
		case r < 5:
			g.Data[i] = math.Copysign(0, -1)
		case r == 5:
			g.Data[i] = math.Inf(1)
		case r == 6:
			g.Data[i] = math.Inf(-1)
		}
	}
	return g
}

// sameBits reports the first pixel at which got and want differ in
// their bits.
func sameBits(t *testing.T, what string, got, want *volume.Image) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: pixel %d = %v (%#x), reference %v (%#x)", what, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// TestRealBitIdenticalToReference holds the clipped projection, with
// Interp's interior path, to the whole-box corner-loop march bit for
// bit: odd and even boxes; the identity and 90° turns, whose rays have
// exactly zero or rounding-sized axis steps and whose samples sit on
// lattice planes (zero-weight corners); a view down the body diagonal,
// whose central ray grazes two box corners; 50 seeded orientations;
// and grids that hold negative values, −0 and ±Inf.
func TestRealBitIdenticalToReference(t *testing.T) {
	orients := []geom.Euler{
		{},
		{Theta: 90},
		{Phi: 90},
		{Omega: 90},
		{Theta: 90, Phi: 90},
		{Theta: 180, Omega: 270},
		{Theta: 90, Phi: 180, Omega: 270},
		{Theta: geom.RadToDeg(math.Acos(1 / math.Sqrt(3))), Phi: 45},
		{Theta: 45, Phi: 45, Omega: 45},
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 50; i++ {
		orients = append(orients, geom.Euler{
			Theta: geom.RadToDeg(math.Acos(2*rng.Float64() - 1)),
			Phi:   rng.Float64() * 360,
			Omega: rng.Float64() * 360,
		})
	}
	for _, l := range []int{15, 16, 24, 25} {
		grids := map[string]*volume.Grid{
			"blobs":    asymGrid(l),
			"signed":   seededGrid(l, int64(l), false),
			"specials": seededGrid(l, int64(l)+1, true),
		}
		for name, g := range grids {
			for _, o := range orients {
				sameBits(t, name+" "+o.String(), Real(g, o), realReference(g, o))
			}
		}
	}
}

// TestClipMatchesBruteForce holds the per-axis clip to the samples
// whose coordinate lies in (−1, l), counted one by one: on rays that
// start exactly on a slab face or one ulp off it, step by rounding-sized
// amounts or run backwards, and on seeded rays that cross a face within
// a few ulps of a sample, where the slab division rounds to the wrong
// side.
func TestClipMatchesBruteForce(t *testing.T) {
	check := func(l int, b, a float64) {
		lo, hi := -l/2, l-l/2
		s, e := clip(b, a, l, lo, hi)
		for tt := lo; tt < hi; tt++ {
			p := b + float64(tt)*a
			want := p > -1 && p < float64(l)
			if got := tt >= s && tt < e; got != want {
				t.Fatalf("l=%d b=%v a=%v: clip keeps [%d, %d), sample %d at %v kept=%v", l, b, a, s, e, tt, p, got)
			}
		}
	}
	const l = 16
	for _, b := range []float64{-1, l, 0, l - 1, 7.5, -1.5, l + 0.5, -30, 40} {
		for _, a := range []float64{1, 0.5, 0.7071067811865476, 1e-17, 6.123233995736766e-17, 1e-300, 3, 0} {
			for _, bb := range []float64{b, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1))} {
				for _, aa := range []float64{a, -a, math.Nextafter(a, 0)} {
					check(l, bb, aa)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(41))
	for _, l := range []int{15, 16, 64, 128} {
		for n := 0; n < 20000; n++ {
			a := (2*rng.Float64() - 1) * math.Pow(10, -3*rng.Float64())
			edge := -1.0
			if rng.Intn(2) == 0 {
				edge = float64(l)
			}
			b := edge - float64(rng.Intn(l)-l/2)*a
			for j := rng.Intn(4); j > 0; j-- {
				b = math.Nextafter(b, math.Inf(2*rng.Intn(2)-1))
			}
			check(l, b, a)
		}
	}
}

// FuzzProjectReal holds Real to realReference bit for bit on fuzzed
// boxes (l 2–20), finite orientations and seeded grids with −0 and ±Inf
// voxels.
func FuzzProjectReal(f *testing.F) {
	f.Add(uint8(14), 0.0, 0.0, 0.0, int64(1))
	f.Add(uint8(13), 90.0, 90.0, 0.0, int64(2))
	f.Add(uint8(0), 54.735610317245346, 45.0, 0.0, int64(3))
	f.Add(uint8(18), 133.0, 311.0, 201.0, int64(4))
	f.Fuzz(func(t *testing.T, ls uint8, theta, phi, omega float64, seed int64) {
		for _, a := range []float64{theta, phi, omega} {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				t.Skip("non-finite orientation")
			}
		}
		l := 2 + int(ls)%19
		g := seededGrid(l, seed, seed%2 == 0)
		o := geom.Euler{Theta: theta, Phi: phi, Omega: omega}
		sameBits(t, o.String(), Real(g, o), realReference(g, o))
	})
}
