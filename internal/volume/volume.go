// Package volume provides the dense 3-D electron-density grids and 2-D
// particle images that the reconstruction pipeline operates on, in both
// real (float64) and Fourier (complex128) form, with flat row-major
// storage, slab views for the parallel 3-D DFT, radial masks, and a
// simple binary serialization format.
//
// Layout. A Grid of size l holds l³ voxels with z fastest: voxel
// (x, y, z) lives at (x*l+y)*l + z. An Image of size l holds l² pixels
// with the second index fastest: pixel (j, k) lives at j*l + k. The
// spatial origin (particle centre) of both is the voxel/pixel at
// index l/2 on every axis; Fourier-domain data uses the standard DFT
// layout (frequency 0 at index 0).
package volume

import (
	"fmt"
	"math"
)

// Grid is a cubic 3-D real-valued lattice of edge length L, the
// electron-density map D of the paper.
type Grid struct {
	L    int
	Data []float64
}

// NewGrid allocates a zeroed l³ grid.
func NewGrid(l int) *Grid {
	if l < 1 {
		panic(fmt.Sprintf("volume: invalid grid size %d", l))
	}
	return &Grid{L: l, Data: make([]float64, l*l*l)}
}

// Index returns the flat index of voxel (x, y, z).
func (g *Grid) Index(x, y, z int) int { return (x*g.L+y)*g.L + z }

// At returns the voxel value at (x, y, z).
func (g *Grid) At(x, y, z int) float64 { return g.Data[(x*g.L+y)*g.L+z] }

// Set stores v at voxel (x, y, z).
func (g *Grid) Set(x, y, z int, v float64) { g.Data[(x*g.L+y)*g.L+z] = v }

// Add accumulates v into voxel (x, y, z).
func (g *Grid) Add(x, y, z int, v float64) { g.Data[(x*g.L+y)*g.L+z] += v }

// Clone returns a deep copy of the grid.
func (g *Grid) Clone() *Grid {
	c := NewGrid(g.L)
	copy(c.Data, g.Data)
	return c
}

// Center returns the integer coordinate of the spatial origin, l/2.
func (g *Grid) Center() int { return g.L / 2 }

// Interp samples the grid at fractional coordinates by trilinear
// interpolation; points outside the lattice contribute zero.
func (g *Grid) Interp(x, y, z float64) float64 {
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

// Stats returns the minimum, maximum, mean and standard deviation of
// the grid values.
func (g *Grid) Stats() (min, max, mean, std float64) {
	return stats(g.Data)
}

// Scale multiplies every voxel by s.
func (g *Grid) Scale(s float64) {
	for i := range g.Data {
		g.Data[i] *= s
	}
}

// AddGrid accumulates o into g; both must have the same size.
func (g *Grid) AddGrid(o *Grid) {
	if o.L != g.L {
		panic(fmt.Sprintf("volume: size mismatch %d vs %d", g.L, o.L))
	}
	for i := range g.Data {
		g.Data[i] += o.Data[i]
	}
}

// SphericalMask zeroes all voxels farther than radius voxels from the
// spatial centre.
func (g *Grid) SphericalMask(radius float64) {
	c := float64(g.Center())
	r2 := radius * radius
	for x := 0; x < g.L; x++ {
		dx := float64(x) - c
		for y := 0; y < g.L; y++ {
			dy := float64(y) - c
			for z := 0; z < g.L; z++ {
				dz := float64(z) - c
				if dx*dx+dy*dy+dz*dz > r2 {
					g.Set(x, y, z, 0)
				}
			}
		}
	}
}

// ZSection extracts the xy-plane at height z as an Image (a
// cross-section like the paper's Fig. 2).
func (g *Grid) ZSection(z int) *Image {
	im := NewImage(g.L)
	for x := 0; x < g.L; x++ {
		for y := 0; y < g.L; y++ {
			im.Set(x, y, g.At(x, y, z))
		}
	}
	return im
}

// Correlation returns the Pearson cross-correlation coefficient of two
// equally sized grids — the global map-similarity measure used when
// comparing reconstructions.
func Correlation(a, b *Grid) float64 {
	if a.L != b.L {
		panic(fmt.Sprintf("volume: size mismatch %d vs %d", a.L, b.L))
	}
	return pearson(a.Data, b.Data)
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var num, dx2, dy2 float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		num += dx * dy
		dx2 += dx * dx
		dy2 += dy * dy
	}
	den := math.Sqrt(dx2 * dy2)
	if den == 0 {
		return 0
	}
	return num / den
}

func stats(data []float64) (min, max, mean, std float64) {
	if len(data) == 0 {
		return 0, 0, 0, 0
	}
	min, max = data[0], data[0]
	var sum float64
	for _, v := range data {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	mean = sum / float64(len(data))
	var ss float64
	for _, v := range data {
		d := v - mean
		ss += d * d
	}
	std = math.Sqrt(ss / float64(len(data)))
	return
}

// Downsample returns the grid binned by an integer factor: each output
// voxel averages a factor³ input block. The grid size must be
// divisible by the factor. Binning is the standard way to build the
// coarse maps used early in a resolution ladder.
func (g *Grid) Downsample(factor int) *Grid {
	if factor < 1 || g.L%factor != 0 {
		panic(fmt.Sprintf("volume: cannot downsample %d³ by %d", g.L, factor))
	}
	nl := g.L / factor
	out := NewGrid(nl)
	inv := 1 / float64(factor*factor*factor)
	for x := 0; x < nl; x++ {
		for y := 0; y < nl; y++ {
			for z := 0; z < nl; z++ {
				var s float64
				for dx := 0; dx < factor; dx++ {
					for dy := 0; dy < factor; dy++ {
						for dz := 0; dz < factor; dz++ {
							s += g.At(x*factor+dx, y*factor+dy, z*factor+dz)
						}
					}
				}
				out.Set(x, y, z, s*inv)
			}
		}
	}
	return out
}
