// Package kernel is a hotpathalloc fixture: Accumulate carries the
// //repro:hotpath tag and commits every banned per-call allocation;
// Preallocated and Setup show the compliant shapes.
package kernel

type point struct{ x, y float64 }

func sink(v interface{}) {}

// Accumulate is a tagged kernel with one of each violation.
//
//repro:hotpath
func Accumulate(xs []float64) float64 {
	var out []float64
	var total float64
	for i := 0; i < len(xs); i++ {
		out = append(out, xs[i])             // want hotpathalloc "append in hot path without a same-function make"
		f := func() float64 { return xs[i] } // want hotpathalloc "closure over loop variable"
		total += f()
	}
	p := &point{x: 1}                 // want hotpathalloc "composite literal escapes to the heap"
	ws := []float64{0.25, 0.75}       // want hotpathalloc "slice/map literal allocates in a hot path"
	sink(xs)                          // want hotpathalloc "numeric slice passed to interface parameter"
	cut := make([]float64, len(xs))   // want hotpathalloc "make with a run-time size allocates on every call"
	idx := make(map[int]int, len(xs)) // want hotpathalloc "make with a run-time size allocates on every call"
	q := new(point)                   // want hotpathalloc "new allocates on every call"
	return total + p.x + ws[0] + out[0] + cut[0] + float64(idx[0]) + q.y
}

// tile is the constant scratch size of the compliant kernel.
const tile = 16

// Preallocated is the compliant kernel: scratch made with an explicit
// constant capacity in the same function (the compiler can keep it on
// the stack), no escapes, no boxing.
//
//repro:hotpath
func Preallocated(xs []float64) float64 {
	buf := make([]float64, 0, tile)
	for _, v := range xs[:min(len(xs), tile)] {
		buf = append(buf, v)
	}
	var total float64
	for _, v := range buf {
		total += v
	}
	return total
}

// Setup is untagged: per-call allocation outside the kernels is not
// this analyzer's business.
func Setup(xs []float64) []float64 {
	var out []float64
	for _, v := range xs {
		out = append(out, v)
	}
	return out
}
