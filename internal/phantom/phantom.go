// Package phantom builds synthetic ground-truth electron-density maps
// that stand in for the paper's experimental virus structures. The
// real datasets (cryo-TEM micrographs of Sindbis and reovirus) are not
// reproducible, but the refinement algorithm only ever sees 2-D views
// of *some* density, so a known synthetic particle exercises the same
// code paths while additionally providing ground-truth orientations to
// score against.
//
// All particles are sums of Gaussian blobs. Capsid models replicate a
// handful of seed blobs under a point-symmetry group, which is how
// real capsids achieve genetic economy — many copies of identical
// subunits — and what gives the maps their detectable symmetry.
package phantom

import (
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/pool"
	"repro/internal/volume"
)

// Blob is one Gaussian density unit. Center is in voxels relative to
// the grid centre.
type Blob struct {
	Center    geom.Vec3
	Sigma     float64
	Amplitude float64
}

// Rasterize renders blobs onto an l³ grid. Each blob only touches
// voxels within 4σ of its centre, so rendering is fast even for many
// subunits. The x planes render on the pool; each walks every blob in
// order and writes only its own voxels, so every voxel sums its blobs
// in blob order whichever worker renders it.
func Rasterize(l int, blobs []Blob) *volume.Grid {
	g := volume.NewGrid(l)
	c := float64(l / 2)
	pool.RunIndexedLabeled("phantom.rasterize", l, 0, func(_, x int) {
		for _, b := range blobs {
			cx, cy, cz := b.Center.X+c, b.Center.Y+c, b.Center.Z+c
			r := 4 * b.Sigma
			if x < clamp(int(math.Floor(cx-r)), l) || x >= clamp(int(math.Ceil(cx+r))+1, l) {
				continue
			}
			y0, y1 := clamp(int(math.Floor(cy-r)), l), clamp(int(math.Ceil(cy+r))+1, l)
			z0, z1 := clamp(int(math.Floor(cz-r)), l), clamp(int(math.Ceil(cz+r))+1, l)
			inv := 1 / (2 * b.Sigma * b.Sigma)
			r2 := r * r
			dx := float64(x) - cx
			for y := y0; y < y1; y++ {
				dy := float64(y) - cy
				for z := z0; z < z1; z++ {
					dz := float64(z) - cz
					d2 := dx*dx + dy*dy + dz*dz
					if d2 > r2 {
						continue
					}
					g.Add(x, y, z, b.Amplitude*math.Exp(-d2*inv))
				}
			}
		}
	})
	return g
}

func clamp(v, max int) int {
	if v < 0 {
		return 0
	}
	if v > max {
		return max
	}
	return v
}

// Symmetrize replicates each seed blob under every rotation of the
// group, producing the full particle from its asymmetric unit.
// Orbit positions that coincide (seeds on a symmetry axis) are merged
// so amplitudes do not pile up.
func Symmetrize(g *geom.Group, seeds []Blob) []Blob {
	var out []Blob
	const mergeDist = 1e-6
	for _, s := range seeds {
		var orbit []Blob
		for _, e := range g.Elements {
			p := e.Apply(s.Center)
			dup := false
			for _, o := range orbit {
				if o.Center.Sub(p).Norm() < mergeDist {
					dup = true
					break
				}
			}
			if !dup {
				orbit = append(orbit, Blob{Center: p, Sigma: s.Sigma, Amplitude: s.Amplitude})
			}
		}
		out = append(out, orbit...)
	}
	return out
}

// shellSeeds deterministically places n seed blobs at the given radius
// with jittered positions drawn from rng, keeping them off symmetry
// axes so the orbit has full size.
func shellSeeds(rng *rand.Rand, n int, radius, sigma, amp float64) []Blob {
	seeds := make([]Blob, 0, n)
	for i := 0; i < n; i++ {
		// Quasi-random direction.
		var d geom.Vec3
		for d.Norm() < 1e-3 {
			d = geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		}
		seeds = append(seeds, Blob{
			Center:    d.Unit().Scale(radius),
			Sigma:     sigma,
			Amplitude: amp,
		})
	}
	return seeds
}

// SindbisLike builds an icosahedral single-shell particle with surface
// spikes, loosely modeled on an alphavirus like Sindbis: a capsid
// shell of symmetry-replicated subunits at ≈0.30·l radius plus spike
// clusters on the twelve five-fold vertices.
func SindbisLike(l int) *volume.Grid {
	rng := rand.New(rand.NewSource(1))
	g := geom.Icosahedral()
	shell := 0.30 * float64(l)
	// Subunit size is fixed in pixels, not proportional to the box:
	// real data is sampled so that protein detail sits near Nyquist,
	// and a larger box should resolve more detail, not bigger blobs.
	sigma := subunitSigma(l)
	seeds := shellSeeds(rng, 3, shell, sigma, 1.0)
	// Spikes on the 5-fold axes: one seed on the (0, 1, φ) axis;
	// coincident orbit copies merge to the 12 vertices.
	phi := (1 + math.Sqrt(5)) / 2
	spikeDir := geom.Vec3{X: 0, Y: 1, Z: phi}.Unit()
	seeds = append(seeds, Blob{
		Center:    spikeDir.Scale(0.40 * float64(l)),
		Sigma:     sigma,
		Amplitude: 1.2,
	})
	return Rasterize(l, Symmetrize(g, seeds))
}

// ReoLike builds an icosahedral double-shelled particle loosely
// modeled on mammalian orthoreovirus: an outer capsid at ≈0.36·l and
// an inner core at ≈0.22·l, each of symmetry-replicated subunits.
func ReoLike(l int) *volume.Grid {
	rng := rand.New(rand.NewSource(2))
	g := geom.Icosahedral()
	fl := float64(l)
	sigma := subunitSigma(l)
	seeds := shellSeeds(rng, 3, 0.36*fl, sigma, 1.0)
	seeds = append(seeds, shellSeeds(rng, 2, 0.22*fl, sigma*1.3, 0.8)...)
	return Rasterize(l, Symmetrize(g, seeds))
}

// Asymmetric builds a particle with no symmetry (C1): n random blobs
// within 0.35·l of the centre. It models the asymmetric objects whose
// structure determination motivates the paper's method.
func Asymmetric(l, n int, seed int64) *volume.Grid {
	rng := rand.New(rand.NewSource(seed))
	fl := float64(l)
	blobs := make([]Blob, 0, n)
	for i := 0; i < n; i++ {
		var d geom.Vec3
		for d.Norm() < 1e-3 {
			d = geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		}
		r := 0.35 * fl * math.Cbrt(rng.Float64())
		blobs = append(blobs, Blob{
			Center:    d.Unit().Scale(r),
			Sigma:     subunitSigma(l) * (0.9 + 0.8*rng.Float64()),
			Amplitude: 0.5 + rng.Float64(),
		})
	}
	return Rasterize(l, blobs)
}

// CnSymmetric builds a particle with exact C_n symmetry about the Z
// axis, used to exercise symmetry detection for cyclic groups.
func CnSymmetric(l, n int, seed int64) *volume.Grid {
	rng := rand.New(rand.NewSource(seed))
	g := geom.Cyclic(n)
	fl := float64(l)
	seeds := shellSeeds(rng, 4, 0.3*fl, math.Max(subunitSigma(l), 0.04*fl), 1.0)
	return Rasterize(l, Symmetrize(g, seeds))
}

// subunitSigma is the Gaussian radius of one protein subunit in
// pixels. It scales with the box so capsid shells stay smooth and
// connected (sharper blobs turn the shell into a speckle pattern whose
// rotational self-similarity creates spurious matching minima).
func subunitSigma(l int) float64 {
	return math.Max(0.9, 0.032*float64(l))
}
