package fft

import (
	"testing"

	"repro/internal/obs"
)

// The hit/miss tests use unusual lengths so the shared global cache
// (warm from other tests in the binary) cannot mask a delta.

// TestPlanCacheHitMissCounters: the first request of a fresh length is
// one miss, the second identically-sized request is one hit.
func TestPlanCacheHitMissCounters(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	// 3·5·7³: 7-smooth, so building its tables looks up no other length
	// (a Bluestein length would also look up its inner power of two).
	// Deleting it first keeps the length fresh under -count.
	const n = 5145
	planCache.Delete(n)
	h0, m0 := planCacheHits.Value(), planCacheMisses.Value()
	tablesFor(n)
	if dh, dm := planCacheHits.Value()-h0, planCacheMisses.Value()-m0; dh != 0 || dm != 1 {
		t.Fatalf("first request: %d hits, %d misses, want 0 and 1", dh, dm)
	}
	tablesFor(n)
	if dh, dm := planCacheHits.Value()-h0, planCacheMisses.Value()-m0; dh != 1 || dm != 1 {
		t.Fatalf("after the second request: %d hits, %d misses, want 1 and 1", dh, dm)
	}
	vals := obs.Values()
	for _, name := range []string{"fft.plan_cache.hits", "fft.plan_cache.misses"} {
		if vals[name] < 1 {
			t.Errorf("snapshot series %q = %d, want the single counter", name, vals[name])
		}
	}
}

// TestCountersSilentWhenDisabled: with instrumentation off, cache
// traffic must not move any counter.
func TestCountersSilentWhenDisabled(t *testing.T) {
	prev := obs.SetEnabled(false)
	defer obs.SetEnabled(prev)

	const n = 7937 // fresh prime
	h0, m0 := planCacheHits.Value(), planCacheMisses.Value()
	tablesFor(n)
	tablesFor(n)
	if planCacheHits.Value() != h0 || planCacheMisses.Value() != m0 {
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

// TestTransformsAllocFree: a planned transform allocates nothing, with
// instrumentation on or off, on every kernel — power of two, every
// radix of the 7-smooth Stockham kernel (840 = 4·2·3·5·7), Bluestein
// (22 = 2·11) — forward and inverse, and through the 2-D real-input
// path a view transform takes. The transforms run below the
// //repro:hotpath kernels of reconstruct and fourier.
func TestTransformsAllocFree(t *testing.T) {
	for _, enabled := range []bool{false, true} {
		prev := obs.SetEnabled(enabled)
		for _, n := range []int{64, 840, 22} {
			p := NewPlan(n)
			x := make([]complex128, n)
			if a := testing.AllocsPerRun(10, func() { p.Forward(x); p.Inverse(x) }); a != 0 {
				t.Errorf("n=%d, instrumentation %v: Forward+Inverse allocates %v times per call", n, enabled, a)
			}
		}
		rp := NewRealPlan2D(10, 12)
		src, dst := make([]float64, 120), make([]complex128, 120)
		if a := testing.AllocsPerRun(10, func() { rp.Forward(src, dst) }); a != 0 {
			t.Errorf("instrumentation %v: RealPlan2D.Forward allocates %v times per call", enabled, a)
		}
		obs.SetEnabled(prev)
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
