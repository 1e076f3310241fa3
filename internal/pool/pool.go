// Package pool provides the one concurrency primitive shared by every
// compute-bound fan-out in the system: a bounded worker pool handing
// out indices through an atomic counter. It sits below the real-input
// 3-D FFT (internal/fft), the pooled inverse 3-D FFT (internal/fourier),
// the slab-owned reconstruction (internal/reconstruct), FSC
// (internal/fsc) and the per-level refinement pass (internal/core).
// The simulated SP2 (internal/cluster) runs nothing, so it needs no
// pool.
//
// Determinism contract: fn(worker, i) is called exactly once for every
// i in [0, n), and callers obtain input-order results by writing only
// slot i of a preallocated slice. Nothing about scheduling leaks into
// the output; the worker id exists solely to bind per-worker scratch
// without synchronization.
package pool

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Pool occupancy metrics. runs counts pool launches, items the total
// indices dispatched, and items_per_worker the per-worker share of
// each run — a flat histogram means the atomic hand-out balanced the
// load, a skewed one means stragglers dominated.
var (
	poolRuns           = obs.NewCounter("pool.runs")
	poolItems          = obs.NewCounter("pool.items")
	poolWorkers        = obs.NewCounter("pool.workers")
	poolItemsPerWorker = obs.NewHistogram("pool.items_per_worker", 24)
)

// Workers resolves a requested worker count for n independent work
// items: non-positive requests select GOMAXPROCS, and the pool never
// exceeds the number of items.
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// RunIndexed executes fn(worker, i) for every i in [0, n) on a bounded
// pool of the given number of workers. Work is handed out through an
// atomic counter, so load balances dynamically, and each index is
// processed exactly once. The worker id (0 ≤ worker < workers) lets
// callers bind per-worker scratch without synchronization. RunIndexed
// returns after all items complete.
func RunIndexed(n, workers int, fn func(worker, i int)) {
	RunIndexedLabeled("", n, workers, fn)
}

// RunIndexedLabeled is RunIndexed with a stage name. When
// instrumentation is enabled the stage is attached to the worker
// goroutines as a runtime/pprof label (key "stage"), so CPU profiles
// attribute samples to pipeline stages, and occupancy metrics are
// recorded. Scheduling and the exactly-once contract are identical to
// RunIndexed; an empty stage skips the pprof label but still counts.
func RunIndexedLabeled(stage string, n, workers int, fn func(worker, i int)) {
	workers = Workers(n, workers)
	observe := obs.Enabled()
	if observe {
		poolRuns.Inc()
		poolItems.Add(int64(n))
		poolWorkers.Add(int64(workers))
	}
	if workers == 1 {
		body := func() {
			for i := 0; i < n; i++ {
				fn(0, i)
			}
		}
		if observe && stage != "" {
			pprof.Do(context.Background(), pprof.Labels("stage", stage), func(context.Context) { body() })
		} else {
			body()
		}
		if observe {
			poolItemsPerWorker.Observe(int64(n))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			body := func() {
				done := int64(0)
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						break
					}
					fn(worker, i)
					done++
				}
				if observe {
					poolItemsPerWorker.Observe(done)
				}
			}
			if observe && stage != "" {
				// Labels set inside pprof.Do are inherited by any
				// goroutine fn itself spawns.
				pprof.Do(context.Background(), pprof.Labels("stage", stage), func(context.Context) { body() })
			} else {
				body()
			}
		}(w)
	}
	wg.Wait()
}
