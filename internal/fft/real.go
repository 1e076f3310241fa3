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
// half of that axis's frequencies.
//
// This halves the floating-point work relative to the equivalent
// complex transform. RealPlan2D fills the mirror half and returns the
// full spectrum in the standard layout (a view transform is small and
// indexed by signed frequency everywhere downstream). RealPlan3D
// returns only the non-redundant half: the 3-D spectra are the large
// buffers of a cycle, and every reader (the central-section sampler,
// the half-spectrum inverse, the FSC) works from that half.

// splitPair separates the spectra of two real signals transformed
// together as Z = FFT(a + i·b) of length n:
//
//	A[k] = (Z[k] + conj(Z[(n−k) mod n]))/2
//	B[k] = (Z[k] − conj(Z[(n−k) mod n]))/(2i)
//
// writing A into dstA and B into dstB for k < len(dstA): the full
// spectra (length n) or their halves (length n/2+1).
func splitPair(z, dstA, dstB []complex128) {
	n := len(z)
	for k := range dstA {
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

// RealPlan3D computes the non-redundant half of the 3-D DFT of a real
// n×n×n cube — the coefficients with z frequency index iz ≤ n/2, the
// rest being their Hermitian mirrors X[−q] = conj X[q] — in roughly
// half the floating-point work of the complex transform: z-lines are
// transformed two at a time, then the y and x passes run only over
// iz ≤ n/2. The mirror half is never formed; readers recover it from
// the stored half (fourier.VolumeDFT.At).
//
// The input is an l-cube embedded at offset n/2 − l/2 on every axis of
// an otherwise zero n-cube — the padded reference map of
// internal/fourier without a padded copy of it (l = n: a plain cube).
// Forward skips the lines it can see are all zero — the transform of a
// zero line is the zero line — which on a cube embedded in a pad-2 box
// is 5 808 of 14 016 line transforms at 96³: z-line pairs with no
// non-zero sample, and every y-line of an x-plane in which no z-line
// was transformed. (A skipped line holds +0 where the transform might
// have produced −0; no other bit differs.)
//
// Each pass fans out over internal/pool, one work item per x-plane
// (z and y passes) or per iy (x pass), with a plan and line buffers
// per worker. Every output line is written by exactly one item and its
// value does not depend on which worker ran it, so the spectrum is
// bit-identical across worker counts. A RealPlan3D itself is not safe
// for concurrent use.
type RealPlan3D struct {
	n       int
	workers []real3DWorker
	// livePairs[ix] is the number of z-line transforms pass one ran in
	// x-plane ix; zero marks a plane the y pass may skip.
	livePairs []int32
}

// real3DWorker is the private state of one pool worker: a 1-D plan
// (its scratch is per plan) and the gather buffers.
type real3DWorker struct {
	plan *Plan
	zbuf []complex128 // packed z-line pair
	line []complex128
}

// NewRealPlan3D creates a real-input plan for n×n×n transforms.
func NewRealPlan3D(n int) *RealPlan3D { return newRealPlan3D(n, 0) }

// newRealPlan3D is NewRealPlan3D with an explicit worker count (≤ 0:
// GOMAXPROCS), which tests use to pin bit-identity across counts.
func newRealPlan3D(n, workers int) *RealPlan3D {
	p := &RealPlan3D{
		n:         n,
		workers:   make([]real3DWorker, pool.Workers(n, workers)),
		livePairs: make([]int32, n),
	}
	for i := range p.workers {
		p.workers[i] = real3DWorker{plan: NewPlan(n), zbuf: make([]complex128, n), line: make([]complex128, n)}
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

// Forward computes the half spectrum of the n-cube that holds the
// l-cube src (x-major, z fastest) at offset n/2 − l/2 and zeros
// elsewhere. dst must have length n·n·(n/2+1) and receives coefficient
// (ix, iy, iz), iz ≤ n/2, at (ix·n + iy)·(n/2+1) + iz; it is fully
// overwritten.
func (p *RealPlan3D) Forward(src []float64, l int, dst []complex128) {
	n := p.n
	nh := n/2 + 1
	if l < 1 || l > n || len(src) != l*l*l || len(dst) != n*n*nh {
		panic(fmt.Sprintf("fft: real 3-D source length %d (l = %d), half spectrum %d; want an l³ source with l ≤ %d and %d coefficients", len(src), l, len(dst), n, n*n*nh))
	}
	off := n/2 - l/2
	// row returns the source samples of padded z-line (ix, iy), nil
	// for a line outside the embedded cube.
	row := func(ix, iy int) []float64 {
		x, y := ix-off, iy-off
		if x < 0 || x >= l || y < 0 || y >= l {
			return nil
		}
		return src[(x*l+y)*l : (x*l+y+1)*l]
	}
	nw := len(p.workers)
	// z-lines, in real pairs (iy, iy+1) of the padded cube within each
	// x-plane (the last line of an odd n goes alone, b = 0).
	pool.RunIndexedLabeled("fft.real3d.z", n, nw, func(worker, ix int) {
		w := &p.workers[worker]
		live := int32(0)
		for iy := 0; iy < n; iy += 2 {
			a, b := row(ix, iy), []float64(nil)
			da, db := dst[(ix*n+iy)*nh:(ix*n+iy+1)*nh], []complex128(nil)
			if iy+1 < n {
				b = row(ix, iy+1)
				db = dst[(ix*n+iy+1)*nh : (ix*n+iy+2)*nh]
			}
			if allZero(a) && allZero(b) {
				clear(da)
				clear(db)
				continue
			}
			clear(w.zbuf)
			for j := range l {
				var re, im float64
				if a != nil {
					re = a[j]
				}
				if b != nil {
					im = b[j]
				}
				w.zbuf[off+j] = complex(re, im)
			}
			w.plan.Forward(w.zbuf)
			if db != nil {
				splitPair(w.zbuf, da, db)
			} else {
				copy(da, w.zbuf)
			}
			live++
		}
		p.livePairs[ix] = live
	})
	// y lines: stride nh within an x-plane. A plane with no live
	// z-line is zero throughout and stays so.
	pool.RunIndexedLabeled("fft.real3d.y", n, nw, func(worker, ix int) {
		if p.livePairs[ix] == 0 {
			return
		}
		w := &p.workers[worker]
		base := ix * n * nh
		for iz := 0; iz < nh; iz++ {
			for iy := range w.line {
				w.line[iy] = dst[base+iy*nh+iz]
			}
			w.plan.Forward(w.line)
			for iy, v := range w.line {
				dst[base+iy*nh+iz] = v
			}
		}
	})
	// x lines: stride n·nh.
	pool.RunIndexedLabeled("fft.real3d.x", n, nw, func(worker, iy int) {
		w := &p.workers[worker]
		for iz := 0; iz < nh; iz++ {
			col := iy*nh + iz
			for ix := range w.line {
				w.line[ix] = dst[ix*n*nh+col]
			}
			w.plan.Forward(w.line)
			for ix, v := range w.line {
				dst[ix*n*nh+col] = v
			}
		}
	})
	if obs.Enabled() {
		real3dLinesSkipped.Add(int64(p.skipped()))
	}
}

// skipped counts the line transforms the last Forward did not run.
func (p *RealPlan3D) skipped() int {
	perPlane := (p.n + 1) / 2
	n := 0
	for _, live := range p.livePairs {
		n += perPlane - int(live)
		if live == 0 {
			n += p.n/2 + 1
		}
	}
	return n
}
