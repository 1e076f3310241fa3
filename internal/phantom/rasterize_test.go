package phantom

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/volume"
)

// rasterizeSerial is Rasterize on one goroutine, blob by blob: the
// order every voxel must sum its blobs in.
func rasterizeSerial(l int, blobs []Blob) *volume.Grid {
	g := volume.NewGrid(l)
	c := float64(l / 2)
	for _, b := range blobs {
		cx, cy, cz := b.Center.X+c, b.Center.Y+c, b.Center.Z+c
		r := 4 * b.Sigma
		x0, x1 := clamp(int(math.Floor(cx-r)), l), clamp(int(math.Ceil(cx+r))+1, l)
		y0, y1 := clamp(int(math.Floor(cy-r)), l), clamp(int(math.Ceil(cy+r))+1, l)
		z0, z1 := clamp(int(math.Floor(cz-r)), l), clamp(int(math.Ceil(cz+r))+1, l)
		inv := 1 / (2 * b.Sigma * b.Sigma)
		r2 := r * r
		for x := x0; x < x1; x++ {
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
	}
	return g
}

// TestRasterizeMatchesSerial holds Rasterize, which renders x planes
// on the pool, to the serial blob-by-blob loop bit for bit at one to
// four workers: on the sindbis and reo capsids' blobs and on seeded
// blobs that overlap heavily, reach past the box and sit wholly
// outside it.
func TestRasterizeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ico := geom.Icosahedral()
	sets := map[string][]Blob{
		"sindbis": Symmetrize(ico, shellSeeds(rand.New(rand.NewSource(1)), 3, 0.30*24, subunitSigma(24), 1)),
		"reo":     Symmetrize(ico, shellSeeds(rand.New(rand.NewSource(2)), 3, 0.36*24, subunitSigma(24), 1)),
	}
	var seeded []Blob
	for i := 0; i < 300; i++ {
		seeded = append(seeded, Blob{
			Center:    geom.Vec3{X: rng.NormFloat64() * 8, Y: rng.NormFloat64() * 8, Z: rng.NormFloat64() * 8},
			Sigma:     0.5 + 3*rng.Float64(),
			Amplitude: 2*rng.Float64() - 0.5,
		})
	}
	sets["seeded"] = seeded
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, l := range []int{23, 24} {
		for name, blobs := range sets {
			want := rasterizeSerial(l, blobs)
			for _, procs := range []int{1, 2, 3, 4} {
				runtime.GOMAXPROCS(procs)
				got := Rasterize(l, blobs)
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("%s l=%d at %d workers: voxel %d = %v, serial %v", name, l, procs, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// BenchmarkRasterize times the two benchmark capsids' phantoms.
//
//	go test -run '^$' -bench Rasterize ./internal/phantom
func BenchmarkRasterize(b *testing.B) {
	for _, c := range []struct {
		name string
		make func(int) *volume.Grid
		l    int
	}{{"reo", ReoLike, 64}, {"sindbis", SindbisLike, 48}} {
		b.Run(fmt.Sprintf("%s/L=%d", c.name, c.l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.make(c.l)
			}
		})
	}
}
