package fft

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/obs"
	"repro/internal/pool"
)

// Real-input transforms. A real signal's DFT is Hermitian-symmetric
// (X[k] = conj(X[n−k])), which the plans here exploit two ways:
//
//   - 1-D (even n): the classical packing trick — treat the n real
//     samples as n/2 complex samples, transform with a half-size
//     complex FFT, and unpack with one butterfly pass.
//   - 2-D / 3-D (any lengths): transform the fastest axis two real
//     lines at a time through one complex FFT (pack line a as the real
//     part, line b as the imaginary part, split the spectra with the
//     conjugate-mirror identity), then run the remaining axes only
//     over the non-redundant half of that axis's frequencies and fill
//     the mirror half by Hermitian symmetry.
//
// Both halve the floating-point work relative to the equivalent
// complex transform while still producing the full spectrum in the
// standard layout, so callers (the centred image and volume transforms
// of internal/fourier) can switch paths without touching any
// downstream indexing.

// realTables is the immutable shared state of the even-length packing
// trick: the unpack twiddles exp(−2πi·k/n). Cached globally like
// planTables so repeated NewRealPlan calls in hot loops cost only the
// per-plan scratch.
type realTables struct {
	n    int
	twid []complex128
}

func realTablesFor(n int) *realTables {
	s := shardFor(n)
	shard := &realCache[s]
	if v, ok := shard.Load(n); ok {
		realCacheHits.Inc(s)
		return v.(*realTables)
	}
	realCacheMisses.Inc(s)
	t := &realTables{n: n, twid: make([]complex128, n/2)}
	for k := range t.twid {
		angle := -2 * math.Pi * float64(k) / float64(n)
		t.twid[k] = cmplx.Exp(complex(0, angle))
	}
	v, _ := shard.LoadOrStore(n, t)
	return v.(*realTables)
}

// RealPlan computes DFTs of real-valued signals of even length n using
// the packing trick — roughly halving the work relative to a complex
// transform of the same length.
type RealPlan struct {
	*realTables
	half  *Plan
	buf   []complex128
	spect []complex128
}

// NewRealPlan creates a real-input transform plan for even length n.
func NewRealPlan(n int) (*RealPlan, error) {
	if n < 2 || n%2 != 0 {
		return nil, fmt.Errorf("fft: real plan length must be even and ≥ 2, got %d", n)
	}
	return &RealPlan{
		realTables: realTablesFor(n),
		half:       NewPlan(n / 2),
		buf:        make([]complex128, n/2),
		spect:      make([]complex128, n),
	}, nil
}

// Len returns the transform length.
func (p *RealPlan) Len() int { return p.n }

// Forward computes the full n-point DFT of the real signal x,
// returning all n complex coefficients (the upper half is the
// conjugate mirror of the lower half, as for any real signal). The
// returned slice is reused across calls; copy it if you need to keep
// it.
func (p *RealPlan) Forward(x []float64) ([]complex128, error) {
	if len(x) != p.n {
		return nil, fmt.Errorf("fft: real forward length %d, plan length %d", len(x), p.n)
	}
	h := p.n / 2
	for i := 0; i < h; i++ {
		p.buf[i] = complex(x[2*i], x[2*i+1])
	}
	p.half.Forward(p.buf)
	// Unpack: with Z = FFT(even + i·odd),
	//   E[k] = (Z[k] + conj(Z[(h−k) mod h]))/2
	//   O[k] = (Z[k] − conj(Z[(h−k) mod h]))/(2i)
	//   X[k] = E[k] + exp(−2πik/n)·O[k]        for k < h
	//   X[h] = E[0] − O[0]
	for k := 0; k < h; k++ {
		e, o := splitTerms(p.buf[k], p.buf[(h-k)%h])
		p.spect[k] = e + p.twid[k]*o
	}
	e0, o0 := splitTerms(p.buf[0], p.buf[0])
	p.spect[h] = e0 - o0
	// Upper half by Hermitian symmetry of a real signal's DFT.
	for k := h + 1; k < p.n; k++ {
		p.spect[k] = cmplx.Conj(p.spect[p.n-k])
	}
	return p.spect, nil
}

// Inverse recovers the real signal from its full n-point DFT spectrum
// (the inverse of Forward), writing the n samples into dst. Only the
// lower half of the spectrum is read; the upper half is assumed to be
// its Hermitian mirror, which holds for any spectrum of a real signal.
func (p *RealPlan) Inverse(spect []complex128, dst []float64) error {
	if len(spect) != p.n {
		return fmt.Errorf("fft: real inverse length %d, plan length %d", len(spect), p.n)
	}
	if len(dst) != p.n {
		return fmt.Errorf("fft: real inverse dst length %d, plan length %d", len(dst), p.n)
	}
	h := p.n / 2
	// Repack: invert the forward unpacking butterflies,
	//   E[k] = (X[k] + X[k+h])/2
	//   O[k] = conj(t_k)·(X[k] − X[k+h])/2
	//   Z[k] = E[k] + i·O[k],
	// then one half-size inverse FFT de-interleaves even/odd samples.
	for k := 0; k < h; k++ {
		xk, xkh := spect[k], spect[k+h]
		e := halve(xk + xkh)
		o := halve(cmplx.Conj(p.twid[k]) * (xk - xkh))
		p.buf[k] = complex(real(e)-imag(o), imag(e)+real(o)) // e + i·o
	}
	p.half.Inverse(p.buf)
	for i := 0; i < h; i++ {
		dst[2*i] = real(p.buf[i])
		dst[2*i+1] = imag(p.buf[i])
	}
	return nil
}

// RealForward is a convenience wrapper that allocates a fresh result.
func RealForward(x []float64) ([]complex128, error) {
	p, err := NewRealPlan(len(x))
	if err != nil {
		return nil, err
	}
	out, err := p.Forward(x)
	if err != nil {
		return nil, err
	}
	return append([]complex128(nil), out...), nil
}

// RFFT computes the full DFT of a real signal of any length ≥ 1,
// using the halved-work packing path for even lengths and falling back
// to the complex transform for odd ones (where the single-signal
// packing trick does not apply). The result is freshly allocated.
func RFFT(x []float64) []complex128 {
	n := len(x)
	if n >= 2 && n%2 == 0 {
		out, err := RealForward(x)
		if err != nil {
			panic(err) // unreachable: length validated above
		}
		return out
	}
	out := make([]complex128, n)
	for i, v := range x {
		out[i] = complex(v, 0)
	}
	Forward(out)
	return out
}

// IRFFT inverts RFFT: given the full Hermitian spectrum of a real
// signal it returns the freshly allocated real samples.
func IRFFT(spect []complex128) []float64 {
	n := len(spect)
	dst := make([]float64, n)
	if n >= 2 && n%2 == 0 {
		p, err := NewRealPlan(n)
		if err == nil {
			if err := p.Inverse(spect, dst); err != nil {
				panic(err) // unreachable: lengths validated above
			}
			return dst
		}
	}
	buf := append([]complex128(nil), spect...)
	Inverse(buf)
	for i, v := range buf {
		dst[i] = real(v)
	}
	return dst
}

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
// unpacking butterfly of every real-input transform here. Both are
// real scalings of the components rather than complex divisions (a
// runtime call each): the values are the same, and only the sign of a
// zero component may differ (TestSplitTermsMatchComplexDivision).
func splitTerms(z, m complex128) (complex128, complex128) {
	zr, zi, mr, mi := real(z), imag(z), real(m), imag(m)
	return complex((zr+mr)*0.5, (zi-mi)*0.5), complex((zi+mi)*0.5, (mr-zr)*0.5)
}

// halve returns v/2 by real scaling, without a complex division.
func halve(v complex128) complex128 { return complex(real(v)*0.5, imag(v)*0.5) }

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
