package fft

import "fmt"

// Plan2D performs 2-D DFTs on row-major nx×ny arrays (x is the slow
// index: element (ix, iy) lives at ix*ny + iy).
type Plan2D struct {
	nx, ny int
	px, py *Plan
	col    []complex128
}

// NewPlan2D creates a plan for nx×ny transforms.
func NewPlan2D(nx, ny int) *Plan2D {
	return &Plan2D{nx: nx, ny: ny, px: NewPlan(nx), py: NewPlan(ny), col: make([]complex128, nx)}
}

func (p *Plan2D) check(x []complex128) {
	if len(x) != p.nx*p.ny {
		panic(fmt.Sprintf("fft: 2-D data length %d, want %d×%d", len(x), p.nx, p.ny))
	}
}

// Forward computes the in-place 2-D forward DFT.
func (p *Plan2D) Forward(x []complex128) { p.transform(x, true) }

// Inverse computes the in-place 2-D inverse DFT.
func (p *Plan2D) Inverse(x []complex128) { p.transform(x, false) }

func (p *Plan2D) transform(x []complex128, forward bool) {
	p.check(x)
	for ix := 0; ix < p.nx; ix++ {
		row := x[ix*p.ny : (ix+1)*p.ny]
		if forward {
			p.py.Forward(row)
		} else {
			p.py.Inverse(row)
		}
	}
	for iy := 0; iy < p.ny; iy++ {
		for ix := 0; ix < p.nx; ix++ {
			p.col[ix] = x[ix*p.ny+iy]
		}
		if forward {
			p.px.Forward(p.col)
		} else {
			p.px.Inverse(p.col)
		}
		for ix := 0; ix < p.nx; ix++ {
			x[ix*p.ny+iy] = p.col[ix]
		}
	}
}

// Plan3D performs 3-D DFTs on nx×ny×nz arrays stored row-major with z
// fastest: element (ix, iy, iz) lives at (ix*ny+iy)*nz + iz. Every 3-D
// transform the pipeline runs is of a real map or back to one, so
// production uses RealPlan3D and fourier.GridFromHalfSpectrum; this
// complex transform is the //repro:oracle they are tested against.
type Plan3D struct {
	nx, ny, nz int
	px, py, pz *Plan
	line       []complex128
}

// NewPlan3D creates a plan for nx×ny×nz transforms.
//
//repro:oracle
func NewPlan3D(nx, ny, nz int) *Plan3D {
	m := nx
	if ny > m {
		m = ny
	}
	return &Plan3D{
		nx: nx, ny: ny, nz: nz,
		px: NewPlan(nx), py: NewPlan(ny), pz: NewPlan(nz),
		line: make([]complex128, m),
	}
}

func (p *Plan3D) check(x []complex128) {
	if len(x) != p.nx*p.ny*p.nz {
		panic(fmt.Sprintf("fft: 3-D data length %d, want %d×%d×%d", len(x), p.nx, p.ny, p.nz))
	}
}

// Forward computes the in-place 3-D forward DFT.
//
//repro:oracle
func (p *Plan3D) Forward(x []complex128) { p.transform(x, true) }

// Inverse computes the in-place 3-D inverse DFT.
//
//repro:oracle
func (p *Plan3D) Inverse(x []complex128) { p.transform(x, false) }

func (p *Plan3D) transform(x []complex128, forward bool) {
	p.check(x)
	nx, ny, nz := p.nx, p.ny, p.nz
	apply := func(pl *Plan, v []complex128) {
		if forward {
			pl.Forward(v)
		} else {
			pl.Inverse(v)
		}
	}
	// z lines are contiguous.
	for i := 0; i < nx*ny; i++ {
		apply(p.pz, x[i*nz:(i+1)*nz])
	}
	// y lines: stride nz within an x-plane.
	line := p.line[:ny]
	for ix := 0; ix < nx; ix++ {
		base := ix * ny * nz
		for iz := 0; iz < nz; iz++ {
			for iy := 0; iy < ny; iy++ {
				line[iy] = x[base+iy*nz+iz]
			}
			apply(p.py, line)
			for iy := 0; iy < ny; iy++ {
				x[base+iy*nz+iz] = line[iy]
			}
		}
	}
	// x lines: stride ny*nz.
	line = p.line[:nx]
	for iy := 0; iy < ny; iy++ {
		for iz := 0; iz < nz; iz++ {
			off := iy*nz + iz
			for ix := 0; ix < nx; ix++ {
				line[ix] = x[ix*ny*nz+off]
			}
			apply(p.px, line)
			for ix := 0; ix < nx; ix++ {
				x[ix*ny*nz+off] = line[ix]
			}
		}
	}
}

// FreqIndex maps an array index k of an N-point DFT to its signed
// frequency: k for k ≤ N/2, k−N above.
func FreqIndex(k, n int) int {
	if k <= n/2 {
		return k
	}
	return k - n
}

// ArrayIndex is the inverse of FreqIndex: it maps a signed frequency
// f ∈ [−N/2, N/2] to the DFT array index in [0, N).
func ArrayIndex(f, n int) int {
	if f < 0 {
		return f + n
	}
	return f
}
