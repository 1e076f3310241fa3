//go:build !amd64 || purego

package fourier

// haveAVX is false: off amd64, and under the purego build tag, the Go
// loops run everywhere.
const haveAVX = false

// vectorCut samples nothing here; see the amd64 build.
func (s *Sampler) vectorCut(dst []complex128, fh, fk []float64, f *cutFrame, m *CellMemo, vals []complex128, wt, refW []float64) (misses int64, ec, cross float64) {
	return 0, 0, 0
}
