// Package fsc implements the resolution-assessment procedure of the
// paper's Fig. 4: split the views into two halves, reconstruct a map
// from each, and compute the correlation between the two maps shell by
// shell in Fourier space (the Fourier Shell Correlation). The
// resolution of the full map is conservatively read off where the
// correlation falls through 0.5. The half maps are real, so both are
// transformed by the real-input 3-D FFT straight from their voxels.
package fsc

import (
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/pool"
	"repro/internal/volume"
)

// Point is one shell of an FSC curve.
type Point struct {
	// Shell is the integer frequency radius (frequency-index units).
	Shell int
	// FreqPerA is the spatial frequency of the shell in 1/Å.
	FreqPerA float64
	// ResolutionA is the shell's resolution in Å (1/FreqPerA).
	ResolutionA float64
	// CC is the correlation coefficient of the two half-maps over the
	// shell.
	CC float64
}

// Curve is a full FSC curve with the pixel size it was computed at.
type Curve struct {
	PixelA float64
	Points []Point
}

// shellTerms is the number of running sums kept per shell: the cross
// term and the two energies.
const shellTerms = 3

// accumulatePlane folds one x-plane of the two spectra into the
// per-plane partial sums at dst (length shellTerms·(nShells+1), laid
// out [shell][cross, ea, eb]). Both the serial and the parallel curve
// computations call this and then merge planes in ascending x, so the
// floating-point grouping — and therefore the curve, bit for bit — is
// identical on every path and worker count.
func accumulatePlane(dst []float64, fa, fb []complex128, x, l, nShells int) {
	fx := float64(fft.FreqIndex(x, l))
	for y := 0; y < l; y++ {
		fy := float64(fft.FreqIndex(y, l))
		row := (x*l + y) * l
		for z := 0; z < l; z++ {
			fz := float64(fft.FreqIndex(z, l))
			r := math.Sqrt(fx*fx + fy*fy + fz*fz)
			shell := int(math.Round(r))
			if shell < 1 || shell > nShells {
				continue
			}
			va := fa[row+z]
			vb := fb[row+z]
			t := shell * shellTerms
			dst[t] += real(va)*real(vb) + imag(va)*imag(vb)
			dst[t+1] += real(va)*real(va) + imag(va)*imag(va)
			dst[t+2] += real(vb)*real(vb) + imag(vb)*imag(vb)
		}
	}
}

// Compute computes the Fourier shell correlation between two equally
// sized maps. pixelA is the sampling in Å/pixel, used to label shells
// with physical resolutions. Shell 0 (DC) is omitted.
func Compute(a, b *volume.Grid, pixelA float64) (*Curve, error) {
	return ComputeParallel(a, b, pixelA, 1)
}

// ComputeParallel is Compute on a bounded worker pool: the shell
// accumulation fans out over x-planes, each plane summed independently
// and the partials merged in ascending x. The two maps are real, so
// each is transformed by fft.RealPlan3D.Forward straight from its
// voxels, with no complex copy; that transform fans out on its own pool
// and is bit-identical at every worker count. So the curve is
// bit-identical to Compute for every worker count (workers ≤ 0 selects
// GOMAXPROCS).
func ComputeParallel(a, b *volume.Grid, pixelA float64, workers int) (*Curve, error) {
	if a.L != b.L {
		return nil, fmt.Errorf("fsc: map sizes differ: %d vs %d", a.L, b.L)
	}
	if pixelA <= 0 {
		return nil, fmt.Errorf("fsc: pixel size must be positive")
	}
	l := a.L
	fa := make([]complex128, l*l*l)
	fb := make([]complex128, l*l*l)
	plan := fft.NewRealPlan3D(l, l, l)
	plan.Forward(a.Data, fa)
	plan.Forward(b.Data, fb)

	nShells := l / 2
	stride := shellTerms * (nShells + 1)
	partial := make([]float64, l*stride)
	pool.RunIndexedLabeled("fsc.shells", l, workers, func(_, x int) {
		accumulatePlane(partial[x*stride:(x+1)*stride], fa, fb, x, l, nShells)
	})
	cross := make([]float64, nShells+1)
	ea := make([]float64, nShells+1)
	eb := make([]float64, nShells+1)
	for x := 0; x < l; x++ {
		base := x * stride
		for s := 1; s <= nShells; s++ {
			t := base + s*shellTerms
			cross[s] += partial[t]
			ea[s] += partial[t+1]
			eb[s] += partial[t+2]
		}
	}
	c := &Curve{PixelA: pixelA}
	for s := 1; s <= nShells; s++ {
		den := math.Sqrt(ea[s] * eb[s])
		cc := 0.0
		if den > 0 {
			cc = cross[s] / den
		}
		freq := float64(s) / (float64(l) * pixelA)
		c.Points = append(c.Points, Point{
			Shell:       s,
			FreqPerA:    freq,
			ResolutionA: 1 / freq,
			CC:          cc,
		})
	}
	return c, nil
}

// ResolutionAt returns the resolution in Å at which the curve first
// falls below the threshold (the paper uses 0.5: "a correlation
// coefficient higher than 0.5 gives a conservative estimate of the
// final resolution"). The crossing is linearly interpolated in
// frequency. If the curve never falls below the threshold, the finest
// sampled resolution is returned.
func (c *Curve) ResolutionAt(threshold float64) float64 {
	if len(c.Points) == 0 {
		return math.Inf(1)
	}
	prev := c.Points[0]
	if prev.CC < threshold {
		return prev.ResolutionA
	}
	for _, p := range c.Points[1:] {
		if p.CC < threshold {
			// Interpolate the crossing frequency between prev and p.
			t := (prev.CC - threshold) / (prev.CC - p.CC)
			freq := prev.FreqPerA + t*(p.FreqPerA-prev.FreqPerA)
			return 1 / freq
		}
		prev = p
	}
	return c.Points[len(c.Points)-1].ResolutionA
}

// MeanCC returns the average correlation over all shells — a scalar
// summary used to compare curves ("the new orientation refinement
// method gives higher correlation coefficients").
func (c *Curve) MeanCC() float64 {
	if len(c.Points) == 0 {
		return 0
	}
	var s float64
	for _, p := range c.Points {
		s += p.CC
	}
	return s / float64(len(c.Points))
}

// Dominates reports whether curve c has CC ≥ other's CC on at least
// frac of the shared shells — the visual "one curve lies above the
// other" of Figs. 5 and 6 made precise.
func (c *Curve) Dominates(other *Curve, frac float64) bool {
	n := len(c.Points)
	if len(other.Points) < n {
		n = len(other.Points)
	}
	if n == 0 {
		return false
	}
	wins := 0
	for i := 0; i < n; i++ {
		if c.Points[i].CC >= other.Points[i].CC {
			wins++
		}
	}
	return float64(wins) >= frac*float64(n)
}
