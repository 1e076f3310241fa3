package core

import "repro/internal/pool"

// poolWorkers and runIndexedLabeled are thin aliases for internal/pool,
// the shared deterministic worker-pool primitive (also used by the
// parallel slab DFT in internal/parfft). See that package for the
// determinism contract.

func poolWorkers(n, workers int) int { return pool.Workers(n, workers) }

func runIndexedLabeled(stage string, n, workers int, fn func(worker, i int)) {
	pool.RunIndexedLabeled(stage, n, workers, fn)
}
