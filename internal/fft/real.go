package fft

import (
	"fmt"
	"math/cmplx"

	"repro/internal/obs"
	"repro/internal/pool"
)

// Real-input transforms. A real signal's DFT is Hermitian-symmetric
// (X[k] = conj(X[n−k])), which the 2-D and 3-D plans here exploit for
// any lengths: transform the fastest axis two real lines at a time
// through one complex FFT (pack line a as the real part, line b as the
// imaginary part, split the spectra with the conjugate-mirror
// identity), then run the remaining axes only over the non-redundant
// half of that axis's frequencies and fill the mirror half by
// Hermitian symmetry.
//
// This halves the floating-point work relative to the equivalent
// complex transform while still producing the full spectrum in the
// standard layout, so callers (the centred image and volume transforms
// of internal/fourier, the FSC) can switch paths without touching any
// downstream indexing.

// splitPair separates the spectra of two real signals transformed
// together as Z = FFT(a + i·b) of length n:
//
//	A[k] = (Z[k] + conj(Z[(n−k) mod n]))/2
//	B[k] = (Z[k] − conj(Z[(n−k) mod n]))/(2i)
//
// writing A into dstA and B into dstB.
func splitPair(z, dstA, dstB []complex128) {
	n := len(z)
	for k := 0; k < n; k++ {
		dstA[k], dstB[k] = splitTerms(z[k], z[(n-k)%n])
	}
}

// splitTerms returns (z + conj(m))/2 and (z − conj(m))/(2i), the
// unpacking butterfly of splitPair. Both are real scalings of the
// components rather than complex divisions (a runtime call each): the
// values are the same, and only the sign of a zero component may
// differ (TestSplitTermsMatchComplexDivision).
func splitTerms(z, m complex128) (complex128, complex128) {
	zr, zi, mr, mi := real(z), imag(z), real(m), imag(m)
	return complex((zr+mr)*0.5, (zi-mi)*0.5), complex((zi+mi)*0.5, (mr-zr)*0.5)
}

// RealPlan2D computes the full 2-D DFT of a real nx×ny array (row
// major, y fastest — the layout of Plan2D) in roughly half the
// floating-point work of the complex transform: rows are transformed
// two at a time through one complex FFT, then only columns iy ≤ ny/2
// are transformed along x and the rest filled by Hermitian symmetry.
// Works for any lengths, including the paper's odd 221 and 511. Not
// safe for concurrent use (private scratch); each goroutine should own
// one.
type RealPlan2D struct {
	nx, ny int
	px, py *Plan
	rowbuf []complex128 // packed row pair
	col    []complex128
}

// NewRealPlan2D creates a real-input plan for nx×ny transforms.
func NewRealPlan2D(nx, ny int) *RealPlan2D {
	return &RealPlan2D{
		nx: nx, ny: ny,
		px: NewPlan(nx), py: NewPlan(ny),
		rowbuf: make([]complex128, ny),
		col:    make([]complex128, nx),
	}
}

// Forward computes the full 2-D DFT of the real array src into dst.
// Both must have length nx·ny; dst is fully overwritten.
func (p *RealPlan2D) Forward(src []float64, dst []complex128) {
	nx, ny := p.nx, p.ny
	if len(src) != nx*ny || len(dst) != nx*ny {
		panic(fmt.Sprintf("fft: real 2-D data length %d/%d, want %d×%d", len(src), len(dst), nx, ny))
	}
	// Rows along y, two real rows per complex transform.
	ix := 0
	for ; ix+1 < nx; ix += 2 {
		a := src[ix*ny : (ix+1)*ny]
		b := src[(ix+1)*ny : (ix+2)*ny]
		for j := 0; j < ny; j++ {
			p.rowbuf[j] = complex(a[j], b[j])
		}
		p.py.Forward(p.rowbuf)
		splitPair(p.rowbuf, dst[ix*ny:(ix+1)*ny], dst[(ix+1)*ny:(ix+2)*ny])
	}
	if ix < nx { // leftover row of an odd nx
		row := dst[ix*ny : (ix+1)*ny]
		for j, v := range src[ix*ny : (ix+1)*ny] {
			row[j] = complex(v, 0)
		}
		p.py.Forward(row)
	}
	// Columns along x, only the non-redundant half 0..ny/2.
	hy := ny / 2
	for iy := 0; iy <= hy; iy++ {
		for i := 0; i < nx; i++ {
			p.col[i] = dst[i*ny+iy]
		}
		p.px.Forward(p.col)
		for i := 0; i < nx; i++ {
			dst[i*ny+iy] = p.col[i]
		}
	}
	// Mirror half by Hermitian symmetry:
	// X[ix,iy] = conj(X[(−ix) mod nx, (−iy) mod ny]).
	for i := 0; i < nx; i++ {
		im := 0
		if i > 0 {
			im = nx - i
		}
		for iy := hy + 1; iy < ny; iy++ {
			dst[i*ny+iy] = cmplx.Conj(dst[im*ny+ny-iy])
		}
	}
}

// RealPlan3D computes the full 3-D DFT of a real nx×ny×nz array (row
// major, z fastest — the layout of Plan3D) in roughly half the
// floating-point work of the complex transform: z-lines are
// transformed two at a time, the y and x passes run only over z
// frequencies iz ≤ nz/2, and the mirror half is filled by Hermitian
// symmetry.
//
// Forward skips the lines it can see are all zero — the transform of
// a zero line is the zero line — which on a cube embedded in a pad-2
// box is 5 808 of 14 016 line transforms at 96³: z-line pairs with no
// non-zero sample, and every y-line of an x-plane in which no z-line
// was transformed. (A skipped line holds +0 where the transform might
// have produced −0; no other bit differs.)
//
// Each pass fans out over internal/pool, one work item per x-plane
// (z, y and mirror passes) or per iy (x pass), with a plan set and
// line buffers per worker. Every output line is written by exactly one
// item and its value does not depend on which worker ran it, so the
// spectrum is bit-identical across worker counts. A RealPlan3D itself
// is not safe for concurrent use.
type RealPlan3D struct {
	nx, ny, nz int
	workers    []real3DWorker
	// livePairs[ix] is the number of z-line transforms pass one ran in
	// x-plane ix; zero marks a plane the y pass may skip.
	livePairs []int32
}

// real3DWorker is the private state of one pool worker: 1-D plans
// (their scratch is per plan) and the gather buffers.
type real3DWorker struct {
	px, py, pz *Plan
	zbuf       []complex128 // packed z-line pair
	line       []complex128
}

// NewRealPlan3D creates a real-input plan for nx×ny×nz transforms.
func NewRealPlan3D(nx, ny, nz int) *RealPlan3D { return newRealPlan3D(nx, ny, nz, 0) }

// newRealPlan3D is NewRealPlan3D with an explicit worker count (≤ 0:
// GOMAXPROCS), which tests use to pin bit-identity across counts.
func newRealPlan3D(nx, ny, nz, workers int) *RealPlan3D {
	m := nx
	if ny > m {
		m = ny
	}
	p := &RealPlan3D{
		nx: nx, ny: ny, nz: nz,
		workers:   make([]real3DWorker, pool.Workers(m, workers)),
		livePairs: make([]int32, nx),
	}
	for i := range p.workers {
		p.workers[i] = real3DWorker{
			px: NewPlan(nx), py: NewPlan(ny), pz: NewPlan(nz),
			zbuf: make([]complex128, nz),
			line: make([]complex128, m),
		}
	}
	return p
}

// allZero reports whether every sample of x is zero (of either sign).
func allZero(x []float64) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

// Forward computes the full 3-D DFT of the real array src into dst.
// Both must have length nx·ny·nz; dst is fully overwritten.
func (p *RealPlan3D) Forward(src []float64, dst []complex128) {
	nx, ny, nz := p.nx, p.ny, p.nz
	if len(src) != nx*ny*nz || len(dst) != nx*ny*nz {
		panic(fmt.Sprintf("fft: real 3-D data length %d/%d, want %d×%d×%d", len(src), len(dst), nx, ny, nz))
	}
	nw := len(p.workers)
	hz := nz / 2
	// z-lines are contiguous; transform them in real pairs within each
	// x-plane (the last line of an odd ny goes alone).
	pool.RunIndexedLabeled("fft.real3d.z", nx, nw, func(worker, ix int) {
		w := &p.workers[worker]
		live := int32(0)
		iy := 0
		for ; iy+1 < ny; iy += 2 {
			li := ix*ny + iy
			a := src[li*nz : (li+1)*nz]
			b := src[(li+1)*nz : (li+2)*nz]
			da, db := dst[li*nz:(li+1)*nz], dst[(li+1)*nz:(li+2)*nz]
			if allZero(a) && allZero(b) {
				clear(da)
				clear(db)
				continue
			}
			for j := 0; j < nz; j++ {
				w.zbuf[j] = complex(a[j], b[j])
			}
			w.pz.Forward(w.zbuf)
			splitPair(w.zbuf, da, db)
			live++
		}
		if iy < ny {
			li := ix*ny + iy
			zline := dst[li*nz : (li+1)*nz]
			if a := src[li*nz : (li+1)*nz]; allZero(a) {
				clear(zline)
			} else {
				for j, v := range a {
					zline[j] = complex(v, 0)
				}
				w.pz.Forward(zline)
				live++
			}
		}
		p.livePairs[ix] = live
	})
	// y lines: stride nz within an x-plane, z frequencies 0..hz only.
	// A plane with no live z-line is zero throughout and stays so.
	pool.RunIndexedLabeled("fft.real3d.y", nx, nw, func(worker, ix int) {
		if p.livePairs[ix] == 0 {
			return
		}
		w := &p.workers[worker]
		line := w.line[:ny]
		base := ix * ny * nz
		for iz := 0; iz <= hz; iz++ {
			for iy := 0; iy < ny; iy++ {
				line[iy] = dst[base+iy*nz+iz]
			}
			w.py.Forward(line)
			for iy := 0; iy < ny; iy++ {
				dst[base+iy*nz+iz] = line[iy]
			}
		}
	})
	// x lines: stride ny·nz, z frequencies 0..hz only.
	pool.RunIndexedLabeled("fft.real3d.x", ny, nw, func(worker, iy int) {
		w := &p.workers[worker]
		line := w.line[:nx]
		for iz := 0; iz <= hz; iz++ {
			off := iy*nz + iz
			for ix := 0; ix < nx; ix++ {
				line[ix] = dst[ix*ny*nz+off]
			}
			w.px.Forward(line)
			for ix := 0; ix < nx; ix++ {
				dst[ix*ny*nz+off] = line[ix]
			}
		}
	})
	// Mirror half by Hermitian symmetry:
	// X[ix,iy,iz] = conj(X[(−ix) mod nx, (−iy) mod ny, (−iz) mod nz]).
	// Plane ix writes only its own iz > hz and reads only iz ≤ hz.
	pool.RunIndexedLabeled("fft.real3d.mirror", nx, nw, func(_, ix int) {
		ixm := 0
		if ix > 0 {
			ixm = nx - ix
		}
		for iy := 0; iy < ny; iy++ {
			iym := 0
			if iy > 0 {
				iym = ny - iy
			}
			fwd := (ix*ny + iy) * nz
			mir := (ixm*ny + iym) * nz
			for iz := hz + 1; iz < nz; iz++ {
				dst[fwd+iz] = cmplx.Conj(dst[mir+nz-iz])
			}
		}
	})
	if obs.Enabled() {
		real3dLinesSkipped.Add(int64(p.skipped()))
	}
}

// skipped counts the line transforms the last Forward did not run.
func (p *RealPlan3D) skipped() int {
	perPlane := (p.ny + 1) / 2
	n := 0
	for _, live := range p.livePairs {
		n += perPlane - int(live)
		if live == 0 {
			n += p.nz/2 + 1
		}
	}
	return n
}
