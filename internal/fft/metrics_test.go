package fft

import (
	"testing"

	"repro/internal/obs"
)

// The hit/miss tests use unusual fresh lengths so the shared global
// caches (warm from other tests in the binary) cannot mask a delta.

// TestPlanCacheHitMissCounters: the first request of a fresh length is
// a miss, the second identically-sized request is a hit, on the
// length's own shard.
func TestPlanCacheHitMissCounters(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	const n = 7919 // prime, not plausibly requested elsewhere
	s := shardFor(n)
	h0, m0 := planCacheHits.Value(s), planCacheMisses.Value(s)
	tablesFor(n)
	if got := planCacheMisses.Value(s) - m0; got != 1 {
		t.Fatalf("first request: %d misses on shard %d, want 1", got, s)
	}
	hitsAfterFirst := planCacheHits.Value(s) - h0
	tablesFor(n)
	if got := planCacheHits.Value(s) - h0 - hitsAfterFirst; got != 1 {
		t.Fatalf("second request: %d new hits on shard %d, want 1", got, s)
	}
	if got := planCacheMisses.Value(s) - m0; got != 1 {
		t.Fatalf("second request added a miss: %d total on shard %d", got, s)
	}
}

// TestRealCacheHitMissCounters mirrors the plan-cache assertion for the
// real-input unpack-twiddle cache.
func TestRealCacheHitMissCounters(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	const n = 7906 // even (real plans require it), fresh
	s := shardFor(n)
	h0, m0 := realCacheHits.Value(s), realCacheMisses.Value(s)
	realTablesFor(n)
	realTablesFor(n)
	if got := realCacheMisses.Value(s) - m0; got != 1 {
		t.Fatalf("misses on shard %d = %d, want 1", s, got)
	}
	if got := realCacheHits.Value(s) - h0; got != 1 {
		t.Fatalf("hits on shard %d = %d, want 1", s, got)
	}
}

// TestPlanCacheShardSpread: consecutive lengths must not pile onto one
// shard — the Fibonacci hash exists to spread exactly this pattern
// (same-parity, consecutive sizes from slab partitions).
func TestPlanCacheShardSpread(t *testing.T) {
	used := map[int]bool{}
	for n := 4000; n < 4064; n++ {
		used[shardFor(n)] = true
	}
	if len(used) < cacheShards/2 {
		t.Fatalf("64 consecutive lengths landed on only %d of %d shards", len(used), cacheShards)
	}
	// And the counters actually live on those distinct shards: misses
	// for fresh lengths on different shards move different cells.
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	na, nb := 7927, 7933 // fresh primes on (very likely) distinct shards
	sa, sb := shardFor(na), shardFor(nb)
	if sa == sb {
		t.Skipf("chosen primes share shard %d; spread already proven above", sa)
	}
	ma, mb := planCacheMisses.Value(sa), planCacheMisses.Value(sb)
	tablesFor(na)
	tablesFor(nb)
	if planCacheMisses.Value(sa)-ma < 1 || planCacheMisses.Value(sb)-mb < 1 {
		t.Fatalf("misses did not land on their own shards (%d, %d)", sa, sb)
	}
}

// TestCountersSilentWhenDisabled: with instrumentation off, cache
// traffic must not move any counter.
func TestCountersSilentWhenDisabled(t *testing.T) {
	prev := obs.SetEnabled(false)
	defer obs.SetEnabled(prev)

	const n = 7937 // fresh prime
	s := shardFor(n)
	h0, m0 := planCacheHits.Value(s), planCacheMisses.Value(s)
	tablesFor(n)
	tablesFor(n)
	if planCacheHits.Value(s) != h0 || planCacheMisses.Value(s) != m0 {
		t.Fatal("disabled instrumentation moved cache counters")
	}
}

// TestTransformsCountedPerKernel: every 1-D transform lands on its
// kernel's cell — an Inverse once, a Bluestein's inner power-of-two
// transforms not at all — and the cells carry the kernel's name.
func TestTransformsCountedPerKernel(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	before := [3]int64{}
	for k := range before {
		before[k] = transforms.Value(k)
	}
	for n, times := range map[int]int{64: 1, 48: 2, 221: 3} {
		p := NewPlan(n)
		x := make([]complex128, n)
		for i := 0; i < times; i++ {
			p.Forward(x)
		}
		p.Inverse(x)
	}
	for k, want := range [3]int64{kernelPow2: 2, kernelSmooth: 3, kernelBluestein: 4} {
		if got := transforms.Value(k) - before[k]; got != want {
			t.Errorf("%v transforms counted %d, want %d", kernel(k), got, want)
		}
	}
	vals := obs.Values()
	for _, name := range []string{"fft.transforms{kernel=pow2}", "fft.transforms{kernel=smooth}", "fft.transforms{kernel=bluestein}", "fft.real3d.lines_skipped"} {
		if _, ok := vals[name]; !ok {
			t.Errorf("snapshot has no series %q", name)
		}
	}
}

// TestWorkloadTransformsAvoidBluestein: the reference-map transform at
// each benchmark workload's padded box runs no Bluestein transform.
func TestWorkloadTransformsAvoidBluestein(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	before := transforms.Value(int(kernelBluestein))
	for _, bl := range []int{96, 80, 32} { // sindbis, asymmetric, jobs_small at pad 2
		src := make([]float64, bl*bl*bl)
		src[(bl*bl+bl)*bl/2] = 1
		NewRealPlan3D(bl, bl, bl).Forward(src, make([]complex128, len(src)))
		img := make([]float64, bl*bl/4)
		NewRealPlan2D(bl/2, bl/2).Forward(img, make([]complex128, len(img)))
	}
	if got := transforms.Value(int(kernelBluestein)) - before; got != 0 {
		t.Fatalf("%d Bluestein transforms at workload sizes, want 0", got)
	}
}

// TestTransformCountersOffPath: with instrumentation off a transform
// moves no counter and allocates nothing.
func TestTransformCountersOffPath(t *testing.T) {
	prev := obs.SetEnabled(false)
	defer obs.SetEnabled(prev)

	p := NewPlan(48)
	x := make([]complex128, 48)
	before, skipped := transforms.Total(), real3dLinesSkipped.Value()
	if allocs := testing.AllocsPerRun(100, func() { p.Forward(x) }); allocs != 0 {
		t.Errorf("Forward allocates %v times per call with instrumentation off", allocs)
	}
	NewRealPlan3D(4, 4, 4).Forward(make([]float64, 64), make([]complex128, 64))
	if transforms.Total() != before || real3dLinesSkipped.Value() != skipped {
		t.Fatal("disabled instrumentation moved transform counters")
	}
}
