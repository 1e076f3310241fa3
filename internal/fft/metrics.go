package fft

import "repro/internal/obs"

// Plan-cache traffic. A Load that finds the tables is a hit; a miss
// covers the build + LoadOrStore path (including the losers of a
// concurrent first-use race, whose built tables are discarded).
var (
	planCacheHits   = obs.NewCounter("fft.plan_cache.hits")
	planCacheMisses = obs.NewCounter("fft.plan_cache.misses")
)

// Which kernel served the work. transforms counts 1-D transforms per
// kernel (Plan.Forward calls, so an Inverse counts once and the
// power-of-two transforms inside a Bluestein convolution do not): a
// non-zero bluestein cell on a production run means the dataset's box
// size has a prime factor above 7 and has fallen off the fast path.
// real3dLinesSkipped counts the 1-D transforms RealPlan3D.Forward did
// not run because it saw their input was all zero.
var (
	transforms         = obs.NewLabeledCounterVec("fft.transforms", "kernel", kernelNames...)
	real3dLinesSkipped = obs.NewCounter("fft.real3d.lines_skipped")
)
