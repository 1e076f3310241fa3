// Package fft implements the discrete Fourier transforms used by the
// orientation-refinement pipeline: 1-D complex FFTs of any length, and
// separable 2-D and 3-D transforms built on them. Everything is
// written against the standard library only.
//
// The 1-D kernel is chosen by the length's factorisation alone:
//
//   - powers of two: iterative radix-2 Cooley–Tukey, in place; on
//     amd64 with AVX an assembly path runs two butterflies per
//     instruction, bit for bit the Go loop (pow2_amd64.s), which runs
//     everywhere else and under the purego build tag;
//   - other lengths whose prime factors are all ≤ 7 (the 40, 48, 56,
//     80, 96, 112 of real box sizes and their padded lattices): a
//     Stockham autosort mixed-radix transform with butterflies for 2,
//     3, 4, 5 and one generic small-prime butterfly (smooth.go), which
//     needs one n-sized scratch;
//   - everything else (the paper's 221 = 13·17 and 511 = 7·73):
//     Bluestein's chirp-z algorithm over a power-of-two convolution of
//     length ≥ 2n−1.
//
// There is no option that selects a kernel or its assembly path; the
// CPU picks the latter (HaveAVX), and the fft.transforms
// counters (metrics.go) report which ones served a run.
//
// Conventions. Forward transforms are unnormalized,
//
//	X[k] = Σ_n x[n]·exp(−2πi·kn/N),
//
// and Inverse applies the conjugate kernel scaled by 1/N, so
// Inverse(Forward(x)) == x. Frequencies are stored in the usual DFT
// layout: index k holds frequency k for k ≤ N/2 and k−N above.
//
// Plan setup is cached globally: the twiddle factors, bit-reversal
// permutation, Stockham stage tables and Bluestein chirp filter for
// each length are computed once per process and shared (immutably) by
// every Plan of that length, so repeated NewPlan/NewPlan2D/NewRealPlan3D
// calls in hot loops cost only the per-plan scratch allocation.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// kernel names the 1-D algorithm a length is served by. It is a
// function of the length's factorisation only.
type kernel uint8

const (
	kernelPow2      kernel = iota // radix-2 Cooley–Tukey
	kernelSmooth                  // Stockham mixed radix, prime factors ≤ 7
	kernelBluestein               // chirp-z, some prime factor > 7
)

// kernelNames are the label values of the fft.transforms counters, in
// kernel order.
var kernelNames = []string{"pow2", "smooth", "bluestein"}

func (k kernel) String() string { return kernelNames[k] }

// planTables is the immutable precomputed state for transforms of one
// length: which kernel serves it and that kernel's tables. Tables are
// built once per length and shared by every Plan through the global
// cache; nothing mutates them after construction, which is what makes
// the sharing safe across goroutines.
type planTables struct {
	n      int
	kernel kernel

	// Radix-2 state (kernelPow2 only).
	twiddle []complex128
	rev     []int // bit-reversal permutation
	// The vector kernel's tables (HaveAVX and n ≥ 4 only): the
	// bit-reversal swaps as index pairs, and each stage's twiddles,
	// the stage of half-size h at stageTw[2h−4 : 4h−4] holding
	// twiddle[j·n/(2h)] for j < h, each two followed by their copy with
	// the parts swapped (pow2_amd64.s).
	swaps   []uint32
	stageTw []complex128

	// Stockham stages (kernelSmooth only).
	stages []smoothStage

	// Bluestein state (kernelBluestein only).
	bn    int          // convolution length, power of two ≥ 2n−1
	chirp []complex128 // exp(−iπ k²/n)
	bfft  []complex128 // FFT of the chirp filter, precomputed
	inner *planTables  // pow-2 tables of size bn
}

// planCache maps transform length to its shared *planTables. It is
// read only when a plan is built, never per transform, and a sync.Map
// reads a key it already holds without taking a lock, so one map
// serves a pool of workers that all build plans of the same few
// lengths at once.
var planCache sync.Map

// tablesFor returns the shared tables for length n, building them on
// first use. Concurrent first calls may build duplicate tables; only
// one wins the LoadOrStore and the rest are discarded.
func tablesFor(n int) *planTables {
	if v, ok := planCache.Load(n); ok {
		planCacheHits.Inc()
		return v.(*planTables)
	}
	planCacheMisses.Inc()
	t := buildTables(n)
	v, _ := planCache.LoadOrStore(n, t)
	return v.(*planTables)
}

func buildTables(n int) *planTables {
	t := &planTables{n: n}
	if n&(n-1) == 0 {
		t.kernel = kernelPow2
		t.initPow2(n)
		return t
	}
	if radices := smoothRadices(n); radices != nil {
		t.kernel = kernelSmooth
		t.initSmooth(radices)
		return t
	}
	// Bluestein: x̂ = chirp ⊛ (x·chirp) scaled by conj chirp.
	t.kernel = kernelBluestein
	t.bn = 1
	for t.bn < 2*n-1 {
		t.bn <<= 1
	}
	t.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// Use k² mod 2n to avoid precision loss for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		angle := -math.Pi * float64(kk) / float64(n)
		t.chirp[k] = cmplx.Exp(complex(0, angle))
	}
	t.inner = tablesFor(t.bn)
	b := make([]complex128, t.bn)
	b[0] = cmplx.Conj(t.chirp[0])
	for k := 1; k < n; k++ {
		c := cmplx.Conj(t.chirp[k])
		b[k] = c
		b[t.bn-k] = c
	}
	t.inner.forwardPow2(b)
	t.bfft = b
	return t
}

func (t *planTables) initPow2(n int) {
	t.twiddle = make([]complex128, n/2)
	for k := range t.twiddle {
		angle := -2 * math.Pi * float64(k) / float64(n)
		t.twiddle[k] = cmplx.Exp(complex(0, angle))
	}
	t.rev = make([]int, n)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	if n == 1 {
		shift = 64
	}
	for i := range t.rev {
		t.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	if !HaveAVX || n < 4 {
		return
	}
	for i, j := range t.rev {
		if i < j {
			t.swaps = append(t.swaps, uint32(i), uint32(j))
		}
	}
	t.stageTw = make([]complex128, 0, 2*n-4)
	for h := 2; h < n; h <<= 1 {
		stride := n / (2 * h)
		for j := 0; j < h; j += 2 {
			w0, w1 := t.twiddle[j*stride], t.twiddle[(j+1)*stride]
			t.stageTw = append(t.stageTw, w0, w1, complex(imag(w0), real(w0)), complex(imag(w1), real(w1)))
		}
	}
}

// Plan caches twiddle factors and scratch space for transforms of a
// fixed length. The immutable tables come from the global cache, so a
// Plan is cheap to create and reuse; it is not safe for concurrent use
// (each goroutine should own one) because of its private scratch.
type Plan struct {
	*planTables
	// scratch is the Stockham ping-pong buffer (n) or the Bluestein
	// convolution buffer (bn); nil for powers of two, which run in
	// place.
	scratch []complex128
	// vector routes the power-of-two kernel and Inverse's
	// conjugations through the amd64 assembly: HaveAVX, which tests
	// clear to run the Go loops the assembly is held to.
	vector bool
}

// NewPlan creates a transform plan for length n ≥ 1.
func NewPlan(n int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	p := &Plan{planTables: tablesFor(n), vector: HaveAVX}
	switch p.kernel {
	case kernelSmooth:
		p.scratch = make([]complex128, n)
	case kernelBluestein:
		p.scratch = make([]complex128, p.bn)
	}
	return p
}

// Len returns the transform length of the plan.
func (p *Plan) Len() int { return p.n }

// Forward computes the in-place forward DFT of x, which must have
// length Plan.Len.
func (p *Plan) Forward(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: Forward length %d, plan length %d", len(x), p.n))
	}
	transforms.Inc(int(p.kernel))
	switch p.kernel {
	case kernelPow2:
		p.pow2(x, p.vector)
	case kernelSmooth:
		p.forwardSmooth(x, p.scratch)
	default:
		p.bluestein(x)
	}
}

// Inverse computes the in-place inverse DFT of x (conjugate kernel,
// scaled by 1/N).
func (p *Plan) Inverse(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: Inverse length %d, plan length %d", len(x), p.n))
	}
	conj(x, p.vector)
	p.Forward(x)
	if p.vector {
		conjScaleAVX(x, 1/float64(p.n))
		return
	}
	scale := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) * scale
	}
}

// conj conjugates x in place, through the assembly when vector is set.
func conj(x []complex128, vector bool) {
	if vector {
		conjAVX(x)
		return
	}
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
}

// pow2 runs the radix-2 kernel on x: the assembly path when vector is
// set and the length is at least 4, the Go loop otherwise.
func (t *planTables) pow2(x []complex128, vector bool) {
	if vector && len(x) >= 4 {
		t.forwardPow2AVX(x)
		return
	}
	t.forwardPow2(x)
}

// forwardPow2 is the iterative radix-2 Cooley–Tukey kernel in Go. It
// reads only the immutable tables, so shared tables may execute it
// concurrently on distinct data. forwardPow2AVX repeats it on amd64.
func (t *planTables) forwardPow2(x []complex128) {
	n := len(x)
	if n == 1 {
		return
	}
	for i, j := range t.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := t.twiddle[tw]
				a, b := x[k], x[k+half]*w
				x[k], x[k+half] = a+b, a-b
				tw += stride
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT via chirp-z convolution;
// buildTables routes only lengths with a prime factor above maxRadix
// here.
func (p *Plan) bluestein(x []complex128) {
	n, bn := p.n, p.bn
	a := p.scratch
	for i := range a {
		a[i] = 0
	}
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.chirp[k]
	}
	p.inner.pow2(a, p.vector)
	for i := 0; i < bn; i++ {
		a[i] *= p.bfft[i]
	}
	// Inverse pow-2 transform of a.
	conj(a, p.vector)
	p.inner.pow2(a, p.vector)
	scale := complex(1/float64(bn), 0)
	for k := 0; k < n; k++ {
		x[k] = cmplx.Conj(a[k]*scale) * p.chirp[k]
	}
}

// Forward computes the forward DFT of x in place using a throwaway
// plan. Prefer a Plan for repeated transforms.
func Forward(x []complex128) { NewPlan(len(x)).Forward(x) }

// Inverse computes the inverse DFT of x in place using a throwaway
// plan.
func Inverse(x []complex128) { NewPlan(len(x)).Inverse(x) }
