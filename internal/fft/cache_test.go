package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// TestPlansShareTables: two plans of the same length must share the
// same immutable table set (the whole point of the global cache).
func TestPlansShareTables(t *testing.T) {
	for _, n := range []int{16, 48, 221} {
		a, b := NewPlan(n), NewPlan(n)
		if a.planTables != b.planTables {
			t.Fatalf("n=%d: plans built distinct table sets", n)
		}
		if a.kernel != kernelPow2 {
			if &a.scratch[0] == &b.scratch[0] {
				t.Fatalf("n=%d: plans share mutable %v scratch", n, a.kernel)
			}
		}
	}
}

// TestConcurrentPlansCorrect hammers the cache from many goroutines on
// first use of several lengths, each verifying a known transform —
// catching both table races and scratch sharing (run under -race).
func TestConcurrentPlansCorrect(t *testing.T) {
	lengths := []int{64, 96, 128, 221, 243, 509}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*len(lengths))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for _, n := range lengths {
				x := make([]complex128, n)
				for i := range x {
					x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				want := naiveDFTCache(x)
				p := NewPlan(n)
				got := append([]complex128(nil), x...)
				p.Forward(got)
				for i := range got {
					if cmplx.Abs(got[i]-want[i]) > 1e-8*float64(n) {
						errs <- "forward mismatch under concurrency"
						return
					}
				}
				p.Inverse(got)
				for i := range got {
					if cmplx.Abs(got[i]-x[i]) > 1e-9*float64(n) {
						errs <- "round trip mismatch under concurrency"
						return
					}
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func naiveDFTCache(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = s
	}
	return out
}

// BenchmarkNewPlanCached measures plan construction for an
// already-cached power-of-two length — the per-view cost that used to
// rebuild twiddles from scratch.
func BenchmarkNewPlanCached(b *testing.B) {
	NewPlan(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewPlan(256)
	}
}
