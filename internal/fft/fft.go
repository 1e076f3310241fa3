// Package fft implements the discrete Fourier transforms used by the
// orientation-refinement pipeline: 1-D complex FFTs of any length, and
// separable 2-D and 3-D transforms built on them. Everything is
// written against the standard library only.
//
// The 1-D kernel is chosen by the length's factorisation alone:
//
//   - powers of two: iterative radix-2 Cooley–Tukey, in place;
//   - other lengths whose prime factors are all ≤ 7 (the 40, 48, 56,
//     80, 96, 112 of real box sizes and their padded lattices): a
//     Stockham autosort mixed-radix transform with butterflies for 2,
//     3, 4, 5 and one generic small-prime butterfly (smooth.go), which
//     needs one n-sized scratch;
//   - everything else (the paper's 221 = 13·17 and 511 = 7·73):
//     Bluestein's chirp-z algorithm over a power-of-two convolution of
//     length ≥ 2n−1.
//
// There is no option that selects a kernel; the fft.transforms
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

	// Stockham stages (kernelSmooth only).
	stages []smoothStage

	// Bluestein state (kernelBluestein only).
	bn    int          // convolution length, power of two ≥ 2n−1
	chirp []complex128 // exp(−iπ k²/n)
	bfft  []complex128 // FFT of the chirp filter, precomputed
	inner *planTables  // pow-2 tables of size bn
}

// The size-keyed caches are sharded by length so that concurrent
// first-use storms from many workers (per-plane plans in the parallel
// slab DFT, per-view plans in the streaming pipeline) spread their
// LoadOrStore traffic over independent sync.Maps instead of contending
// on one. Steady-state lookups are lock-free reads either way; the
// shards matter during warm-up, which is exactly when a pool of
// workers all request the same handful of lengths at once.
const cacheShards = 16

// planCache maps transform length to its shared *planTables.
var planCache [cacheShards]sync.Map

// realCache maps even transform length to its shared *realTables
// (the unpack twiddles of the real-input path).
var realCache [cacheShards]sync.Map

func shardFor(n int) int {
	// Fibonacci hash: the top 4 bits of n·φ32 spread consecutive and
	// same-parity lengths across all 16 shards.
	return int((uint32(n) * 0x9E3779B1) >> 28)
}

// tablesFor returns the shared tables for length n, building them on
// first use. Concurrent first calls may build duplicate tables; only
// one wins the LoadOrStore and the rest are discarded.
func tablesFor(n int) *planTables {
	s := shardFor(n)
	shard := &planCache[s]
	if v, ok := shard.Load(n); ok {
		planCacheHits.Inc(s)
		return v.(*planTables)
	}
	planCacheMisses.Inc(s)
	t := buildTables(n)
	v, _ := shard.LoadOrStore(n, t)
	return v.(*planTables)
}

// CachedPlanSizes reports how many distinct transform lengths are in
// the global plan cache (diagnostics and tests).
func CachedPlanSizes() int {
	n := 0
	for i := range planCache {
		planCache[i].Range(func(_, _ interface{}) bool { n++; return true })
	}
	return n
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
}

// NewPlan creates a transform plan for length n ≥ 1.
func NewPlan(n int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	p := &Plan{planTables: tablesFor(n)}
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
		p.forwardPow2(x)
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
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	p.Forward(x)
	scale := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) * scale
	}
}

// forwardPow2 is the iterative radix-2 Cooley–Tukey kernel. It reads
// only the immutable tables, so shared tables may execute it
// concurrently on distinct data.
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
	p.inner.forwardPow2(a)
	for i := 0; i < bn; i++ {
		a[i] *= p.bfft[i]
	}
	// Inverse pow-2 transform of a.
	for i := range a {
		a[i] = cmplx.Conj(a[i])
	}
	p.inner.forwardPow2(a)
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
