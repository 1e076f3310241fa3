//go:build !purego

#include "textflag.h"

// The power-of-two kernel's vector passes (see forwardPow2AVX in
// pow2_amd64.go) and Inverse's conjugations. Each YMM register holds
// two complex128, so every instruction below works on two butterflies
// (or two samples) at once, and every value is formed by the Go loop's
// own arithmetic (forwardPow2 and Inverse in fft.go), so the two agree
// bit for bit:
//
//   - Go expands the product b·w into re = br·wr − bi·wi and
//     im = br·wi + bi·wr, each product and sum rounded on its own.
//     Here VMOVDDUP and VPERMILPD $15 put br and bi in both slots of a
//     complex, two VMULPD by [wr, wi] and by the twiddle table's
//     swapped copy [wi, wr] form the same four products, and one
//     VADDSUBPD gives [br·wr − bi·wi, br·wi + bi·wr]. There is never a
//     fused multiply-add, which the Go compiler does not emit on amd64;
//   - a + t and a − t are VADDPD and VSUBPD;
//   - the conjugate is a sign flip of the imaginary slots (VXORPD), as
//     Go's negation is, NaN included; conj(x)·complex(s, 0) keeps Go's
//     four products and two sums, xr·0 and (−xi)·0 among them: those
//     decide the −0 results and the NaN an infinite sample gives.
//
// Where both operands of a sum are NaN the sum keeps the first one's
// payload and sign, so operand order matters there even though the
// value does not. Each sum below takes its operands in the order the Go
// compiler emits for the loops (t + a in a + t; br·wi first in the
// product's imaginary part; xr·0 first in the scaled conjugate's), which
// TestPow2AVXMatchGo checks on NaNs of both signs.

DATA conjSign<>+0(SB)/8, $0
DATA conjSign<>+8(SB)/8, $0x8000000000000000
DATA conjSign<>+16(SB)/8, $0
DATA conjSign<>+24(SB)/8, $0x8000000000000000
GLOBL conjSign<>(SB), RODATA|NOPTR, $32

// func cpuHasAVX() (avx, avx2 bool)
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-2
	MOVB $0, avx+0(FP)
	MOVB $0, avx2+1(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID                // EAX: the highest standard leaf
	MOVL AX, R8
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  nofeature
	XORL CX, CX
	XGETBV               // XCR0 into EDX:EAX
	ANDL $6, AX          // the OS saves XMM (bit 1) and YMM (bit 2) state
	CMPL AX, $6
	JNE  nofeature
	MOVB $1, avx+0(FP)
	CMPL R8, $7
	JB   nofeature
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX          // AVX2 (CPUID.(EAX=7,ECX=0):EBX bit 5)
	JCC  nofeature
	MOVB $1, avx2+1(FP)

nofeature:
	RET

// CMUL sets t to the complex products b·w of the two complex in b and
// in w, given w and its swapped copy ws = [wi0, wr0, wi1, wr1]; s is
// clobbered.
#define CMUL(b, w, ws, s, t) \
	VMOVDDUP  b, t; \
	VPERMILPD $15, b, s; \
	VMULPD    w, t, t; \
	VMULPD    ws, s, s; \
	VADDSUBPD s, t, t

// func swapPairs(x []complex128, swaps []uint32)
TEXT ·swapPairs(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), DI
	MOVQ swaps_base+24(FP), SI
	MOVQ swaps_len+32(FP), CX
	SHRQ $1, CX
	JZ   swapdone

swaploop:
	MOVL    (SI), AX
	MOVL    4(SI), BX
	SHLQ    $4, AX
	SHLQ    $4, BX
	VMOVUPD (DI)(AX*1), X0
	VMOVUPD (DI)(BX*1), X1
	VMOVUPD X1, (DI)(AX*1)
	VMOVUPD X0, (DI)(BX*1)
	ADDQ    $8, SI
	DECQ    CX
	JNZ     swaploop

swapdone:
	RET

// func first4AVX(x []complex128, tw []complex128)
//
// The size-2 and size-4 stages, four samples at a time: the pairs
// (x0, x1) and (x2, x3) by twiddle[0], then (y0, y2) by twiddle[0] and
// (y1, y3) by twiddle[n/4]. tw is the size-4 stage's table,
// [twiddle[0], twiddle[n/4]] and its swapped copy. len(x) is a
// multiple of 4.
TEXT ·first4AVX(SB), NOSPLIT, $0-48
	MOVQ           x_base+0(FP), DI
	MOVQ           x_len+8(FP), CX
	MOVQ           tw_base+24(FP), SI
	VBROADCASTF128 (SI), Y8         // size 2: [twiddle[0], twiddle[0]]
	VBROADCASTF128 32(SI), Y9       // and swapped
	VMOVUPD        (SI), Y10        // size 4: [twiddle[0], twiddle[n/4]]
	VMOVUPD        32(SI), Y11      // and swapped
	SHRQ           $2, CX

first4loop:
	VMOVUPD    (DI), Y0            // [x0, x1]
	VMOVUPD    32(DI), Y1          // [x2, x3]
	VPERM2F128 $0x20, Y1, Y0, Y2   // a = [x0, x2]
	VPERM2F128 $0x31, Y1, Y0, Y3   // b = [x1, x3]
	CMUL(Y3, Y8, Y9, Y4, Y5)
	VADDPD     Y2, Y5, Y0          // [y0, y2]
	VSUBPD     Y5, Y2, Y1          // [y1, y3]
	VPERM2F128 $0x20, Y1, Y0, Y2   // a = [y0, y1]
	VPERM2F128 $0x31, Y1, Y0, Y3   // b = [y2, y3]
	CMUL(Y3, Y10, Y11, Y4, Y5)
	VADDPD     Y2, Y5, Y0
	VSUBPD     Y5, Y2, Y1
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	ADDQ       $64, DI
	DECQ       CX
	JNZ        first4loop
	VZEROUPPER
	RET

// func stageAVX(x []complex128, tw []complex128)
//
// One radix-2 stage of half-size h = len(tw)/2 ≥ 4: in every block of
// 2h samples, sample j and j + h by twiddle j, four butterflies per
// pass. tw holds, per two twiddles, the pair and its swapped copy.
TEXT ·stageAVX(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ tw_base+24(FP), SI
	MOVQ tw_len+32(FP), DX
	SHLQ $4, CX
	ADDQ DI, CX               // end of x
	SHLQ $3, DX               // h in bytes: b's offset from a

stageblock:
	MOVQ SI, R9               // twiddle cursor
	MOVQ DI, R10              // a cursor
	LEAQ (DI)(DX*1), R11      // end of the block's a half

stagepair:
	VMOVUPD   (R10)(DX*1), Y1
	VMOVUPD   32(R10)(DX*1), Y11
	CMUL(Y1, (R9), 32(R9), Y4, Y5)
	CMUL(Y11, 64(R9), 96(R9), Y14, Y15)
	VMOVUPD   (R10), Y0
	VMOVUPD   32(R10), Y10
	VADDPD    Y0, Y5, Y6
	VSUBPD    Y5, Y0, Y7
	VADDPD    Y10, Y15, Y8
	VSUBPD    Y15, Y10, Y9
	VMOVUPD   Y6, (R10)
	VMOVUPD   Y8, 32(R10)
	VMOVUPD   Y7, (R10)(DX*1)
	VMOVUPD   Y9, 32(R10)(DX*1)
	SUBQ      $-128, R9
	ADDQ      $64, R10
	CMPQ      R10, R11
	JB        stagepair
	LEAQ      (DI)(DX*2), DI
	CMPQ      DI, CX
	JB        stageblock
	VZEROUPPER
	RET

// func conjAVX(x []complex128)
TEXT ·conjAVX(SB), NOSPLIT, $0-24
	MOVQ    x_base+0(FP), DI
	MOVQ    x_len+8(FP), CX
	VMOVUPD conjSign<>(SB), Y1
	MOVQ    CX, DX
	SHRQ    $1, CX
	JZ      conjtail

conjloop:
	VXORPD  (DI), Y1, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     conjloop

conjtail:
	TESTQ   $1, DX
	JZ      conjdone
	VXORPD  (DI), X1, X0
	VMOVUPD X0, (DI)

conjdone:
	VZEROUPPER
	RET

// func conjScaleAVX(x []complex128, s float64)
//
// x[i] = conj(x[i])·complex(s, 0): [xr·s − (−xi)·0, xr·0 + (−xi)·s],
// the product of CMUL with w = [s, 0] and ws = [0, s].
TEXT ·conjScaleAVX(SB), NOSPLIT, $0-32
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	VMOVUPD      conjSign<>(SB), Y1
	VBROADCASTSD s+24(FP), Y3
	VXORPD       Y2, Y2, Y2
	VBLENDPD     $10, Y2, Y3, Y6      // w = [s, 0, s, 0]
	VBLENDPD     $5, Y2, Y3, Y7       // ws = [0, s, 0, s]
	MOVQ         CX, DX
	SHRQ         $1, CX
	JZ           scaletail

scaleloop:
	VXORPD    (DI), Y1, Y0        // c = [xr, −xi]
	CMUL(Y0, Y6, Y7, Y4, Y5)
	VMOVUPD   Y5, (DI)
	ADDQ      $32, DI
	DECQ      CX
	JNZ       scaleloop

scaletail:
	TESTQ     $1, DX
	JZ        scaledone
	VXORPD    (DI), X1, X0
	CMUL(X0, X6, X7, X4, X5)
	VMOVUPD   X5, (DI)

scaledone:
	VZEROUPPER
	RET
