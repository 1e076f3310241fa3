//go:build !amd64 || purego

package projection

// haveRayKernel is false: off amd64, and under the purego build tag,
// Real samples every ray through Interp.
const haveRayKernel = false

// rayAVX2 finishes no group here; see the amd64 build.
func rayAVX2(data *float64, l int, bx, by, bz, ax, ay, az float64, t0, groups int, sum float64) (s float64, done int) {
	return sum, 0
}
