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

// defaultNaN is the NaN that x86 arithmetic makes, as ∞ − ∞ does.
// Which of two different NaNs an addition returns depends on the order
// of its operands, and the Go compiler may swap the operands of a
// commutative add, so no test grid mixes two kinds of NaN: a grid with
// ±Inf voxels plants this one, a grid without them math.NaN().
var defaultNaN = math.Float64frombits(0xfff8000000000000)

// plantSpecials sets about one interior voxel in twelve of g to a
// special value, drawn from seed: −0, +Inf, −Inf or NaN (defaultNaN),
// or, with noInf, only −0 and math.NaN().
func plantSpecials(g *volume.Grid, seed int64, noInf bool) *volume.Grid {
	rng := rand.New(rand.NewSource(seed))
	specials := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), defaultNaN}
	if noInf {
		specials = []float64{math.Copysign(0, -1), math.NaN()}
	}
	l := g.L
	for x := 1; x < l-1; x++ {
		for y := 1; y < l-1; y++ {
			for z := 1; z < l-1; z++ {
				if rng.Intn(12) == 0 {
					g.Set(x, y, z, specials[rng.Intn(len(specials))])
				}
			}
		}
	}
	return g
}

// onPath reports whether Interp takes its straight-line path at (x, y,
// z) in an l³ grid: Interp's own test, written out.
func onPath(l int, x, y, z float64) bool {
	for _, p := range []float64{x, y, z} {
		f := math.Floor(p)
		if !(f >= 0 && f <= float64(l-2)) || p-f == 0 || 1-(p-f) == 0 {
			return false
		}
	}
	return true
}

// rayCoverage counts what TestRayKernelMatchesGo has seen, ray by ray
// as project splits them.
type rayCoverage struct {
	kernel  int // groups of four on the straight-line path (the kernel sums them)
	stopped int // groups with a lane off it (Go sums them)
	tails   int // rays with n mod 4 samples left for Go
	short   int // rays with one to three samples, which never reach the kernel
	special int // kernel groups with a −0, ±Inf or NaN among their corners
}

// cover adds the rays of the view of g at o to cov.
func (cov *rayCoverage) cover(g *volume.Grid, d Density, o geom.Euler) {
	l := g.L
	c := float64(l / 2)
	centre := geom.Vec3{X: c, Y: c, Z: c}
	m := o.Matrix()
	xa, ya, za := m.Col(0), m.Col(1), m.Col(2)
	half := l / 2
	for j := 0; j < l; j++ {
		for k := 0; k < l; k++ {
			base := centre.Add(xa.Scale(float64(j) - c)).Add(ya.Scale(float64(k) - c))
			lo, hi := sphere(base.Sub(centre), za, d.r+2, -half, l-half)
			lo, hi = clip(base.X, za.X, l, lo, hi)
			lo, hi = clip(base.Y, za.Y, l, lo, hi)
			lo, hi = clip(base.Z, za.Z, l, lo, hi)
			if n := hi - lo; n > 0 && n < 4 {
				cov.short++
			} else if n%4 != 0 {
				cov.tails++
			}
			for t := lo; t+4 <= hi; t += 4 {
				on, special := true, false
				for s := t; s < t+4; s++ {
					p := base.Add(za.Scale(float64(s)))
					if !onPath(l, p.X, p.Y, p.Z) {
						on = false
						break
					}
					x0, y0, z0 := int(p.X), int(p.Y), int(p.Z)
					for q := 0; q < 8; q++ {
						v := g.At(x0+q>>2, y0+q>>1&1, z0+q&1)
						special = special || v == 0 && math.Signbit(v) || math.IsInf(v, 0) || math.IsNaN(v)
					}
				}
				switch {
				case !on:
					cov.stopped++
				case special:
					cov.kernel++
					cov.special++
				default:
					cov.kernel++
				}
			}
		}
	}
}

// TestRayKernelMatchesGo holds Real with the ray kernel to Real
// without it (Interp on every sample) bit for bit, with
// math.Float64bits: the three benchmark phantoms at their sizes;
// orientations that keep an axis on lattice planes (fractions exactly
// 0, so groups fall to Go), 90° turns, the body diagonal, whose rays
// graze the box's corners, and seeded orientations; every l from 2 to
// 20; seeded grids with −0, ±Inf and NaN planted inside; and grids of
// compact support, whose rays graze the support sphere and often keep
// fewer than four samples. It logs how many groups each path summed
// and fails if a class is missing.
func TestRayKernelMatchesGo(t *testing.T) {
	if !haveRayKernel {
		t.Skip("no ray kernel on this build or CPU (AVX2 on amd64, without purego); Real samples every ray through Interp")
	}
	orients := []geom.Euler{
		{},
		{Theta: 90},
		{Phi: 90},
		{Omega: 90},
		{Theta: 90, Phi: 90},
		{Phi: 37},
		{Omega: 23},
		{Theta: 90, Omega: 41},
		{Theta: 90, Phi: 90, Omega: 17},
		{Theta: 180, Phi: 11},
		{Theta: geom.RadToDeg(math.Acos(1 / math.Sqrt(3))), Phi: 45},
		{Theta: 45, Phi: 45, Omega: 45},
	}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 16; i++ {
		orients = append(orients, geom.Euler{
			Theta: geom.RadToDeg(math.Acos(2*rng.Float64() - 1)),
			Phi:   rng.Float64() * 360,
			Omega: rng.Float64() * 360,
		})
	}
	var cov rayCoverage
	check := func(name string, g *volume.Grid, orients []geom.Euler) {
		t.Helper()
		d := NewDensity(g)
		for _, o := range orients {
			sameBits(t, name+" "+o.String(), project(d, o, true), project(d, o, false))
			cov.cover(g, d, o)
		}
	}
	for l := 2; l <= 20; l++ {
		grids := map[string]*volume.Grid{
			"blobs":        asymGrid(l),
			"signed":       seededGrid(l, int64(l), false),
			"specials":     plantSpecials(seededGrid(l, int64(l)+1, false), int64(l), false),
			"specials NaN": plantSpecials(seededGrid(l, int64(l)+2, false), int64(l)+1, true),
			"support":      zeroBeyond(plantSpecials(seededGrid(l, int64(l)+3, false), int64(l)+2, false), 0.3*float64(l), int64(l)),
		}
		for name, g := range grids {
			check(fmt.Sprintf("l=%d %s", l, name), g, orients)
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
		check(name, g, orients)
	}
	t.Logf("coverage: %d groups summed by the kernel (%d with a −0, ±Inf or NaN corner), %d stopped and summed by Interp; %d rays with a tail, %d rays shorter than four samples",
		cov.kernel, cov.special, cov.stopped, cov.tails, cov.short)
	if cov.kernel == 0 || cov.special == 0 || cov.stopped == 0 || cov.tails == 0 || cov.short == 0 {
		t.Errorf("a class of group or ray was never seen: %+v", cov)
	}
}

// BenchmarkReal times one view of the reo phantom, the recon_fsc
// dataset's map, at four sizes, cycling over 16 seeded orientations on
// one goroutine: "kernel" is Real as it runs on this machine (the ray
// kernel where the CPU has AVX2), "go" Real with Interp on every
// sample.
//
//	go test -run '^$' -bench Real ./internal/projection
func BenchmarkReal(b *testing.B) {
	rng := rand.New(rand.NewSource(59))
	orients := make([]geom.Euler, 16)
	for i := range orients {
		orients[i] = geom.Euler{
			Theta: geom.RadToDeg(math.Acos(2*rng.Float64() - 1)),
			Phi:   rng.Float64() * 360,
			Omega: rng.Float64() * 360,
		}
	}
	for _, l := range []int{24, 32, 48, 64} {
		d := NewDensity(phantom.ReoLike(l))
		for _, mode := range []struct {
			name   string
			vector bool
		}{{"kernel", haveRayKernel}, {"go", false}} {
			b.Run(fmt.Sprintf("L=%d/%s", l, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					project(d, orients[i%len(orients)], mode.vector)
				}
			})
		}
	}
}
