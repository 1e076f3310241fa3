package core

import (
	"runtime"
	"testing"
)

// TestStreamShapeDefaults holds the deprecated StreamShape shim to the
// pool pass's one worker count: a non-positive hint selects GOMAXPROCS,
// a positive one passes through, and the answer keeps the old
// three-stage form (W, W, 0) — the same count for both former stages
// and no channel depth.
func TestStreamShapeDefaults(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ hint, want int }{{0, p}, {-3, p}, {5, 5}} {
		fft, ref, depth := StreamShape(StreamOptions{Workers: c.hint})
		if fft != c.want || ref != c.want || depth != 0 {
			t.Errorf("hint %d: shape (%d, %d, %d), want (%d, %d, 0)", c.hint, fft, ref, depth, c.want, c.want)
		}
	}
}
