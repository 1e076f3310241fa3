package volume

import "fmt"

// CGrid is a cubic complex-valued lattice: the 3-D DFT D̂ of an
// electron-density map, stored in standard DFT layout (frequency 0 at
// index 0, negative frequencies wrapped to the top half).
type CGrid struct {
	L    int
	Data []complex128
}

// NewCGrid allocates a zeroed complex l³ grid.
func NewCGrid(l int) *CGrid {
	if l < 1 {
		panic(fmt.Sprintf("volume: invalid grid size %d", l))
	}
	return &CGrid{L: l, Data: make([]complex128, l*l*l)}
}

// Index returns the flat index of element (x, y, z).
func (g *CGrid) Index(x, y, z int) int { return (x*g.L+y)*g.L + z }

// At returns the element at (x, y, z).
func (g *CGrid) At(x, y, z int) complex128 { return g.Data[(x*g.L+y)*g.L+z] }

// Set stores v at (x, y, z).
func (g *CGrid) Set(x, y, z int, v complex128) { g.Data[(x*g.L+y)*g.L+z] = v }

// Add accumulates v into (x, y, z).
func (g *CGrid) Add(x, y, z int, v complex128) { g.Data[(x*g.L+y)*g.L+z] += v }

// Clone returns a deep copy.
func (g *CGrid) Clone() *CGrid {
	c := NewCGrid(g.L)
	copy(c.Data, g.Data)
	return c
}

// Real extracts the real part as a Grid, discarding imaginary
// residue (e.g. after an inverse DFT of Hermitian data).
func (g *CGrid) Real() *Grid {
	r := NewGrid(g.L)
	for i, v := range g.Data {
		r.Data[i] = real(v)
	}
	return r
}

// MaxImagAbs returns the largest |imag| component, a diagnostic for
// how Hermitian the data is.
func (g *CGrid) MaxImagAbs() float64 {
	m := 0.0
	for _, v := range g.Data {
		if im := imag(v); im > m {
			m = im
		} else if -im > m {
			m = -im
		}
	}
	return m
}

// Energy returns Σ|v|² over the grid.
func (g *CGrid) Energy() float64 {
	var e float64
	for _, v := range g.Data {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

// LowPass zeroes all Fourier coefficients with radius (in frequency
// index units, centred on frequency 0) above rmax — the paper's "keep
// only the subset of D̂ within a sphere of radius r_map".
func (g *CGrid) LowPass(rmax float64) {
	l := g.L
	r2 := rmax * rmax
	for x := 0; x < l; x++ {
		fx := float64(signedFreq(x, l))
		for y := 0; y < l; y++ {
			fy := float64(signedFreq(y, l))
			for z := 0; z < l; z++ {
				fz := float64(signedFreq(z, l))
				if fx*fx+fy*fy+fz*fz > r2 {
					g.Set(x, y, z, 0)
				}
			}
		}
	}
}

func signedFreq(k, n int) int {
	if k <= n/2 {
		return k
	}
	return k - n
}
