//go:build !purego

package fft

// HaveAVX reports whether the CPU implements AVX and the OS saves its
// registers, and HaveAVX2 whether it also implements AVX2. They are
// probed once, at init, by the one CPUID routine of the module:
// fourier's cut kernel and projection's ray kernel read them too.
var HaveAVX, HaveAVX2 = cpuHasAVX()

// cpuHasAVX reports whether the CPU implements AVX (CPUID.1:ECX bit
// 28) and the OS saves its registers across context switches (bit 27,
// OSXSAVE, and XCR0 bits 1–2 read by XGETBV), and, if so, whether it
// also implements AVX2 (CPUID.(EAX=7,ECX=0):EBX bit 5).
func cpuHasAVX() (avx, avx2 bool)

// swapPairs exchanges x[swaps[2i]] and x[swaps[2i+1]] for every i.
//
//go:noescape
func swapPairs(x []complex128, swaps []uint32)

// first4AVX runs the size-2 and size-4 radix-2 stages over x, whose
// length is a multiple of 4; tw is the size-4 stage's table.
//
//go:noescape
func first4AVX(x, tw []complex128)

// stageAVX runs one radix-2 stage of half-size h = len(tw)/2 ≥ 4 over
// x: in every block of 2h samples, x[j] and x[j+h] meet twiddle j,
// which tw holds with its swapped copy.
//
//go:noescape
func stageAVX(x, tw []complex128)

// conjAVX sets x[i] = cmplx.Conj(x[i]).
//
//go:noescape
func conjAVX(x []complex128)

// conjScaleAVX sets x[i] = cmplx.Conj(x[i]) * complex(s, 0).
//
//go:noescape
func conjScaleAVX(x []complex128, s float64)

// forwardPow2AVX is forwardPow2 on a length ≥ 4, two butterflies per
// instruction: the bit reversal from the swap list, the size-2 and
// size-4 stages in one pass, then one pass per later stage, each over
// its own twiddle table. pow2_amd64.s says why every value equals the
// Go loop's bit for bit.
func (t *planTables) forwardPow2AVX(x []complex128) {
	swapPairs(x, t.swaps)
	first4AVX(x, t.stageTw[:4])
	for h := 4; h < len(x); h <<= 1 {
		stageAVX(x, t.stageTw[2*h-4:4*h-4])
	}
}
