package projection

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/phantom"
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

// zeroBeyond sets every voxel of g farther than radius from the box
// centre to +0 or −0, drawn from seed, so that g's support lies in
// that ball. A radius past the box corners leaves g as it is.
func zeroBeyond(g *volume.Grid, radius float64, seed int64) *volume.Grid {
	rng := rand.New(rand.NewSource(seed))
	l, c := g.L, g.L/2
	for x := 0; x < l; x++ {
		for y := 0; y < l; y++ {
			for z := 0; z < l; z++ {
				dx, dy, dz := float64(x-c), float64(y-c), float64(z-c)
				if dx*dx+dy*dy+dz*dz > radius*radius {
					g.Data[(x*l+y)*l+z] = math.Copysign(0, float64(rng.Intn(2)*2-1))
				}
			}
		}
	}
	return g
}

// oneVoxel is an l³ grid of +0 with the value v at (x, y, z).
func oneVoxel(l, x, y, z int, v float64) *volume.Grid {
	g := volume.NewGrid(l)
	g.Set(x, y, z, v)
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
// grids that hold negative values, −0 and ±Inf; and grids of compact
// support, where the support sphere skips samples: seeded grids zeroed
// (+0 or −0) beyond a seeded radius, one nonzero voxel at the support's
// edge (finite, ±Inf, NaN), one in a box corner, where the sphere
// reaches past the box and must skip nothing the clip keeps, and grids
// of +0 and of −0, which must project to +0 everywhere. The three
// benchmark phantoms follow at their own sizes.
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
	check := func(name string, g *volume.Grid, orients []geom.Euler) {
		t.Helper()
		d := NewDensity(g)
		for _, o := range orients {
			sameBits(t, name+" "+o.String(), Real(d, o), realReference(g, o))
		}
	}
	for _, l := range []int{15, 16, 24, 25} {
		c := l / 2
		neg := volume.NewGrid(l)
		for i := range neg.Data {
			neg.Data[i] = math.Copysign(0, -1)
		}
		grids := map[string]*volume.Grid{
			"blobs":    asymGrid(l),
			"signed":   seededGrid(l, int64(l), false),
			"specials": seededGrid(l, int64(l)+1, true),
			"corner":   oneVoxel(l, l-1, 0, l-1, 2.5),
			"zero":     volume.NewGrid(l),
			"negzero":  neg,
		}
		for i := 0; i < 4; i++ {
			radius := rng.Float64() * 0.8 * float64(l)
			grids[fmt.Sprintf("support %.3g", radius)] = zeroBeyond(seededGrid(l, int64(l)+2+int64(i), i%2 == 1), radius, int64(i))
		}
		// The edge voxel is the one farthest from the centre, so the
		// support radius is its distance.
		for _, v := range []float64{-1.5, math.Inf(1), math.Inf(-1), math.NaN()} {
			grids[fmt.Sprintf("edge %v", v)] = oneVoxel(l, c+l/3, c-l/4, c+1, v)
		}
		for name, g := range grids {
			check(name, g, orients)
		}
		for _, name := range []string{"zero", "negzero"} {
			im := Real(NewDensity(grids[name]), orients[len(orients)-1])
			for i, x := range im.Data {
				if math.Float64bits(x) != 0 {
					t.Fatalf("l=%d %s: pixel %d = %v, want +0", l, name, i, x)
				}
			}
		}
	}
	asym := phantom.Asymmetric(40, 12, 5)
	asym.SphericalMask(0.42 * 40)
	phantoms := map[string]*volume.Grid{
		"sindbis l=48":    phantom.SindbisLike(48),
		"reo l=64":        phantom.ReoLike(64),
		"asymmetric l=40": asym,
	}
	for name, g := range phantoms {
		check(name, g, orients[:15])
	}
}

// TestSupportRadius holds supportRadius to a brute-force maximum over
// every voxel whose bits are not ±0: −0 is ignored, NaN and ±Inf count,
// and a grid of ±0 has no support (−1).
func TestSupportRadius(t *testing.T) {
	brute := func(g *volume.Grid) float64 {
		l, c := g.L, float64(g.L/2)
		r := -1.0
		for x := 0; x < l; x++ {
			for y := 0; y < l; y++ {
				for z := 0; z < l; z++ {
					if math.Float64bits(g.At(x, y, z))<<1 == 0 {
						continue
					}
					dx, dy, dz := float64(x)-c, float64(y)-c, float64(z)-c
					r = max(r, math.Sqrt(dx*dx+dy*dy+dz*dz))
				}
			}
		}
		return r
	}
	negZero := math.Copysign(0, -1)
	cases := map[string]*volume.Grid{
		"zero":          volume.NewGrid(9),
		"negzero voxel": oneVoxel(9, 0, 0, 0, negZero),
		"centre":        oneVoxel(9, 4, 4, 4, 1),
		"corner":        oneVoxel(8, 0, 0, 0, -3),
		"far corner":    oneVoxel(8, 7, 7, 7, 1e-300),
		"nan":           oneVoxel(11, 1, 9, 5, math.NaN()),
		"inf":           oneVoxel(11, 10, 5, 0, math.Inf(1)),
		"-inf":          oneVoxel(12, 6, 0, 7, math.Inf(-1)),
		"full":          seededGrid(10, 3, true),
	}
	nz := oneVoxel(10, 0, 0, 0, negZero) // −0 farther out than the 1
	nz.Set(2, 5, 5, 1)
	cases["negzero beyond"] = nz
	for i := 0; i < 6; i++ {
		l := 13 + i
		cases[fmt.Sprintf("support l=%d", l)] = zeroBeyond(seededGrid(l, int64(i), i%2 == 0), float64(i)*1.7, int64(i))
	}
	for name, g := range cases {
		if got, want := supportRadius(g), brute(g); got != want {
			t.Errorf("%s: supportRadius %v, brute force %v", name, got, want)
		}
	}
}

// TestSphereKeepsBall holds sphere to the samples whose computed
// distance from the centre is at most reach, counted one by one on
// seeded rays, some tangent to the ball: it must keep every one of them
// that lies deeper than 1e-9 voxel (rounding decides a sample exactly
// on the sphere; Real's 0.27-voxel margin covers it), may keep at most
// one more step's worth at each end, and must leave a range it cannot
// narrow (NaN roots) as it is.
func TestSphereKeepsBall(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	unit := func() geom.Vec3 {
		return geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Unit()
	}
	for n := 0; n < 20000; n++ {
		l := 8 + rng.Intn(120)
		lo, hi := -l/2, l-l/2
		a := unit()
		reach := rng.Float64() * float64(l)
		// Base points from the centre out to past the box corner, some
		// exactly tangent to the ball.
		b := unit().Scale(rng.Float64() * float64(l))
		if n%5 == 0 {
			perp := b.Sub(a.Scale(b.Dot(a)))
			b = perp.Unit().Scale(reach)
		}
		s, e := sphere(b, a, reach, lo, hi)
		if s < lo || e > hi || s > e {
			t.Fatalf("b=%v a=%v reach=%v: range [%d, %d) outside [%d, %d)", b, a, reach, s, e, lo, hi)
		}
		for tt := lo; tt < hi; tt++ {
			dist := b.Add(a.Scale(float64(tt))).Norm()
			kept := tt >= s && tt < e
			if dist <= reach-1e-9 && !kept {
				t.Fatalf("b=%v a=%v reach=%v: sample %d at %v dropped from [%d, %d)", b, a, reach, tt, dist, s, e)
			}
			if kept && dist > reach+1.5 {
				t.Fatalf("b=%v a=%v reach=%v: sample %d at %v kept in [%d, %d)", b, a, reach, tt, dist, s, e)
			}
		}
	}
	nan := geom.Vec3{X: math.NaN()}
	if s, e := sphere(nan, geom.Vec3{Z: 1}, 3, -4, 4); s != -4 || e != 4 {
		t.Fatalf("NaN ray: range [%d, %d), want [-4, 4)", s, e)
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
// voxels, zeroed beyond a fuzzed support radius (rs/12 voxels, 0 to
// past the box corners) so that the support sphere skips samples.
func FuzzProjectReal(f *testing.F) {
	f.Add(uint8(14), 0.0, 0.0, 0.0, int64(1), uint8(255))
	f.Add(uint8(13), 90.0, 90.0, 0.0, int64(2), uint8(255))
	f.Add(uint8(0), 54.735610317245346, 45.0, 0.0, int64(3), uint8(255))
	f.Add(uint8(18), 133.0, 311.0, 201.0, int64(4), uint8(255))
	f.Add(uint8(18), 133.0, 311.0, 201.0, int64(4), uint8(60))
	f.Add(uint8(15), 54.735610317245346, 45.0, 0.0, int64(5), uint8(12))
	f.Add(uint8(16), 90.0, 0.0, 0.0, int64(6), uint8(0))
	f.Add(uint8(9), 17.0, 250.0, 99.0, int64(8), uint8(100))
	f.Fuzz(func(t *testing.T, ls uint8, theta, phi, omega float64, seed int64, rs uint8) {
		for _, a := range []float64{theta, phi, omega} {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				t.Skip("non-finite orientation")
			}
		}
		l := 2 + int(ls)%19
		g := zeroBeyond(seededGrid(l, seed, seed%2 == 0), float64(rs)/12, seed)
		o := geom.Euler{Theta: theta, Phi: phi, Omega: omega}
		sameBits(t, o.String(), Real(NewDensity(g), o), realReference(g, o))
	})
}
