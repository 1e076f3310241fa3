//go:build !purego

package projection

import "repro/internal/fft"

// haveRayKernel reports whether rayAVX2 can run: the CPU and OS
// support AVX2 (fft.HaveAVX2, probed once at init).
var haveRayKernel = fft.HaveAVX2

// rayAVX2 sums groups of four consecutive samples of one ray onto sum,
// starting at sample t0: sample t sits at b + t·a in map coordinates
// and is Interp's straight-line value there, computed on four lanes at
// once by the same arithmetic (ray_amd64.s says how, step by step),
// and the four lane values join sum one at a time, in t order. It
// stops at the first group that has a lane off the straight-line path,
// before adding any of it, and returns the sum and the number of
// groups it finished. data holds the l³ voxels of the grid, and l³
// must be below 2³¹.
//
//go:noescape
func rayAVX2(data *float64, l int, bx, by, bz, ax, ay, az float64, t0, groups int, sum float64) (s float64, done int)
