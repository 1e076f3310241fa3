package fourier

import (
	"math"
	"sync"
	"sync/atomic"
)

// CutKey identifies one cached central-section cut: an orientation
// quantized to a lattice of Step degrees per axis (T, P, O are the
// per-axis lattice indices θ/Step, φ/Step, ω/Step) plus the band
// prefix length N the cut was sampled over. Keys are exact — callers
// present only orientations that are whole lattice multiples — so a
// hit returns coefficients bit-identical to resampling.
type CutKey struct {
	Step    float64
	T, P, O int64
	N       int
}

const cutShardCount = 16

type cutShard struct {
	mu sync.Mutex
	m  map[CutKey][]complex128
	// coeffs is Σ len over the cached cuts — the shard's memory gauge.
	coeffs int
}

// CutCache is a sharded, concurrency-safe memo of central-section
// cuts keyed by quantized orientation. The adaptive orientation search
// walks every view over the same per-level lattice, so views refining
// near each other reuse interpolated cuts instead of re-sampling them
// — the cut construction is the dominant half of a matching operation.
// Cached slices are shared across goroutines and must be treated as
// immutable by every caller.
//
// The cache is bounded by total cached coefficients; a shard that
// would exceed its budget is cleared whole (cheap, and the descent's
// locality refills the useful entries within a few batches).
type CutCache struct {
	shards      [cutShardCount]cutShard
	shardBudget int
	// hits/misses are always-on counters (the obs mirrors fire only
	// when instrumentation is enabled) so benchmarks can report hit
	// rates without enabling the full counter registry.
	hits, misses atomic.Int64
}

// NewCutCache builds a cache bounded to roughly maxCoeffs cached
// complex coefficients in total; ≤ 0 selects a default of 256K
// (≈ 4 MiB of cut data).
//
// The default is sized to the cache's traffic, not to its possible
// contents: on distinct views the hit rate is ~0.02, and the hits come
// from entries a few batches old (a descent revisiting its own
// neighbourhood), not from cross-view reuse, so a large budget only
// pins cuts that are never read again. Measured with benchcycle on
// cycle_adaptive (2 cores, seed 1, medians): the former 4M-coefficient
// (64 MiB) budget gave peak_rss_mb 194 and core.cut_cache_hit_rate
// 0.024; this one gives 96 MB and 0.019, with cycle_s 0.92 s → 0.93 s,
// inside run-to-run noise (DESIGN.md §12.4).
func NewCutCache(maxCoeffs int) *CutCache {
	if maxCoeffs <= 0 {
		maxCoeffs = 1 << 18
	}
	c := &CutCache{shardBudget: (maxCoeffs + cutShardCount - 1) / cutShardCount}
	for i := range c.shards {
		c.shards[i].m = make(map[CutKey][]complex128)
	}
	return c
}

// shardOf hashes a key to its shard with a splitmix64-style finalizer
// over the mixed fields.
func shardOf(k CutKey) int {
	h := math.Float64bits(k.Step)
	h = cutMix(h + uint64(k.T)*0x9e3779b97f4a7c15)
	h = cutMix(h + uint64(k.P)*0xbf58476d1ce4e5b9)
	h = cutMix(h + uint64(k.O)*0x94d049bb133111eb)
	h = cutMix(h + uint64(k.N))
	return int(h & (cutShardCount - 1))
}

func cutMix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Get returns the cached cut for key, recording a hit or miss.
func (c *CutCache) Get(key CutKey) ([]complex128, bool) {
	s := &c.shards[shardOf(key)]
	s.mu.Lock()
	cut, ok := s.m[key]
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
		cutCacheHits.Inc()
	} else {
		c.misses.Add(1)
		cutCacheMisses.Inc()
	}
	return cut, ok
}

// Put publishes a freshly sampled cut and returns the canonical cached
// slice: when another goroutine raced the same key in first, its copy
// wins and is returned instead (both are bit-identical by
// construction, so either is correct — the point is that every caller
// ends up sharing one backing array). The caller must not write to the
// returned slice.
func (c *CutCache) Put(key CutKey, cut []complex128) []complex128 {
	s := &c.shards[shardOf(key)]
	s.mu.Lock()
	if prev, ok := s.m[key]; ok {
		s.mu.Unlock()
		return prev
	}
	if s.coeffs+len(cut) > c.shardBudget {
		clear(s.m)
		s.coeffs = 0
		cutCacheEvictions.Inc()
	}
	s.m[key] = cut
	s.coeffs += len(cut)
	s.mu.Unlock()
	return cut
}

// Stats returns the cumulative hit and miss counts.
func (c *CutCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of cuts currently cached.
func (c *CutCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
