//go:build !amd64 || purego

package fft

// HaveAVX and HaveAVX2 are false: off amd64, and under the purego
// build tag, every transform runs the Go loops.
const HaveAVX, HaveAVX2 = false, false

// The vector passes do not exist here; no Plan asks for them.

func (t *planTables) forwardPow2AVX(x []complex128) { panic("fft: no vector kernel in this build") }

func conjAVX(x []complex128) { panic("fft: no vector kernel in this build") }

func conjScaleAVX(x []complex128, s float64) { panic("fft: no vector kernel in this build") }
