//go:build !purego

#include "textflag.h"

// The cut kernel's vector passes (see vectorCut in cutkernel_amd64.go).
// Every step repeats the arithmetic of the Go loop (sampleSlots,
// blendLane and scoreSlots) on amd64 in the same order, so the two
// agree bit for bit: AVX1 only (separate multiplies and adds, never a
// fused multiply-add, which the Go compiler does not emit on amd64),
// ordered compares for the band test (a NaN lane is in band, as in Go),
// VROUNDPD $1 for math.Floor (−0 stays −0) and VCVTTPD2DQ for int32 of
// the floored value.

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV               // XCR0 into EDX:EAX
	ANDL $6, AX          // the OS saves XMM (bit 1) and YMM (bit 2) state
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func locateGroupsAVX(fh, fk []float64, f *cutFrame, keys, cand [][3][4]int32, frac [][3][4]float64, mask []uint8)
TEXT ·locateGroupsAVX(SB), NOSPLIT, $0-152
	MOVQ  fh_base+0(FP), SI
	MOVQ  fk_base+24(FP), DI
	MOVQ  f+48(FP), AX
	MOVQ  keys_base+56(FP), R8
	MOVQ  cand_base+80(FP), R9
	MOVQ  frac_base+104(FP), R10
	MOVQ  mask_base+128(FP), R11
	MOVQ  mask_len+136(FP), CX
	TESTQ CX, CX
	JZ    locdone

	// The frame, one field per register in all four lanes.
	VBROADCASTSD 0(AX), Y0  // xx
	VBROADCASTSD 8(AX), Y1  // yx
	VBROADCASTSD 16(AX), Y2 // xy
	VBROADCASTSD 24(AX), Y3 // yy
	VBROADCASTSD 32(AX), Y4 // xz
	VBROADCASTSD 40(AX), Y5 // yz
	VBROADCASTSD 48(AX), Y6 // pad
	VBROADCASTSD 56(AX), Y7 // ny
	VBROADCASTSD 64(AX), Y8 // −ny

locloop:
	VMOVUPD (SI), Y9  // h
	VMOVUPD (DI), Y10 // k

	// x = (xx·h + yx·k)·pad, and likewise y and z.
	VMULPD Y9, Y0, Y11
	VMULPD Y10, Y1, Y12
	VADDPD Y12, Y11, Y11
	VMULPD Y6, Y11, Y11
	VMULPD Y9, Y2, Y12
	VMULPD Y10, Y3, Y13
	VADDPD Y13, Y12, Y12
	VMULPD Y6, Y12, Y12
	VMULPD Y9, Y4, Y13
	VMULPD Y10, Y5, Y14
	VADDPD Y14, Y13, Y13
	VMULPD Y6, Y13, Y13

	// Out of band: x < −ny || x > ny || … with ordered, quiet
	// compares (LT_OQ, GT_OQ), false on NaN as Go's are.
	VCMPPD    $0x11, Y8, Y11, Y14
	VCMPPD    $0x1e, Y7, Y11, Y15
	VORPD     Y15, Y14, Y14
	VCMPPD    $0x11, Y8, Y12, Y15
	VORPD     Y15, Y14, Y14
	VCMPPD    $0x1e, Y7, Y12, Y15
	VORPD     Y15, Y14, Y14
	VCMPPD    $0x11, Y8, Y13, Y15
	VORPD     Y15, Y14, Y14
	VCMPPD    $0x1e, Y7, Y13, Y15
	VORPD     Y15, Y14, Y14
	VMOVMSKPD Y14, AX

	// Per axis: floor, fraction, candidate key, and whether it equals
	// the lane's key.
	VROUNDPD    $1, Y11, Y9
	VSUBPD      Y9, Y11, Y11
	VMOVUPD     Y11, (R10)
	VCVTTPD2DQY Y9, X9
	VMOVDQU     X9, (R9)
	VPCMPEQD    (R8), X9, X9
	VROUNDPD    $1, Y12, Y10
	VSUBPD      Y10, Y12, Y12
	VMOVUPD     Y12, 32(R10)
	VCVTTPD2DQY Y10, X10
	VMOVDQU     X10, 16(R9)
	VPCMPEQD    16(R8), X10, X10
	VPAND       X10, X9, X9
	VROUNDPD    $1, Y13, Y10
	VSUBPD      Y10, Y13, Y13
	VMOVUPD     Y13, 64(R10)
	VCVTTPD2DQY Y10, X10
	VMOVDQU     X10, 32(R9)
	VPCMPEQD    32(R8), X10, X10
	VPAND       X10, X9, X9
	VMOVMSKPS   X9, BX

	// mask = misses (in band, not keyed) | out of band << 4.
	ORL  AX, BX
	XORL $15, BX
	SHLL $4, AX
	ORL  AX, BX
	MOVB BX, (R11)

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $48, R8
	ADDQ $48, R9
	ADDQ $96, R10
	INCQ R11
	DECQ CX
	JNZ  locloop

locdone:
	VZEROUPPER
	RET

// func blendGroupsAVX(dst []complex128, frac [][3][4]float64, corners [][16][4]float64, mask []uint8, vals []complex128, wt, refW []float64) (ec, cross float64)
TEXT ·blendGroupsAVX(SB), NOSPLIT, $0-184
	MOVQ   dst_base+0(FP), DI
	MOVQ   frac_base+24(FP), SI
	MOVQ   corners_base+48(FP), R8
	MOVQ   mask_base+72(FP), R9
	MOVQ   mask_len+80(FP), CX
	MOVQ   vals_base+96(FP), R11
	MOVQ   wt_base+120(FP), R12
	MOVQ   refW_base+144(FP), R13 // nil: no cut weights
	VXORPD X14, X14, X14          // the sums (ec, cross), one lane each
	TESTQ  CX, CX
	JZ     blenddone
	LEAQ   oobLanes<>(SB), R10
	VBROADCASTSD one<>(SB), Y15

blendloop:
	// blend's weights, formed as blend forms them.
	VMOVUPD (SI), Y0     // fx
	VMOVUPD 32(SI), Y1   // fy
	VMOVUPD 64(SI), Y2   // fz
	VSUBPD  Y0, Y15, Y3  // wx0 = 1 − fx
	VSUBPD  Y1, Y15, Y4  // wy0
	VSUBPD  Y2, Y15, Y5  // wz0
	VMULPD  Y4, Y3, Y6   // w00 = wx0·wy0
	VMULPD  Y1, Y3, Y7   // w01 = wx0·fy
	VMULPD  Y4, Y0, Y8   // w10 = fx·wy0
	VMULPD  Y1, Y0, Y9   // w11 = fx·fy
	VMULPD  Y5, Y6, Y10  // w000 = w00·wz0
	VMULPD  Y2, Y6, Y6   // w001 = w00·fz
	VMULPD  Y5, Y7, Y11  // w010
	VMULPD  Y2, Y7, Y7   // w011
	VMULPD  Y5, Y8, Y12  // w100
	VMULPD  Y2, Y8, Y8   // w101
	VMULPD  Y5, Y9, Y13  // w110
	VMULPD  Y2, Y9, Y9   // w111

	// re = w000·c000 + w001·c001 + … + w111·c111, left to right.
	VMULPD (R8), Y10, Y0
	VMULPD 32(R8), Y6, Y1
	VADDPD Y1, Y0, Y0
	VMULPD 64(R8), Y11, Y1
	VADDPD Y1, Y0, Y0
	VMULPD 96(R8), Y7, Y1
	VADDPD Y1, Y0, Y0
	VMULPD 128(R8), Y12, Y1
	VADDPD Y1, Y0, Y0
	VMULPD 160(R8), Y8, Y1
	VADDPD Y1, Y0, Y0
	VMULPD 192(R8), Y13, Y1
	VADDPD Y1, Y0, Y0
	VMULPD 224(R8), Y9, Y1
	VADDPD Y1, Y0, Y0

	// im likewise, from the upper eight rows.
	VMULPD 256(R8), Y10, Y2
	VMULPD 288(R8), Y6, Y3
	VADDPD Y3, Y2, Y2
	VMULPD 320(R8), Y11, Y3
	VADDPD Y3, Y2, Y2
	VMULPD 352(R8), Y7, Y3
	VADDPD Y3, Y2, Y2
	VMULPD 384(R8), Y12, Y3
	VADDPD Y3, Y2, Y2
	VMULPD 416(R8), Y8, Y3
	VADDPD Y3, Y2, Y2
	VMULPD 448(R8), Y13, Y3
	VADDPD Y3, Y2, Y2
	VMULPD 480(R8), Y9, Y3
	VADDPD Y3, Y2, Y2

	// Out-of-band lanes become +0.
	MOVBLZX (R9), AX
	SHRL    $4, AX
	SHLL    $5, AX
	VMOVUPD (R10)(AX*1), Y4
	VANDNPD Y0, Y4, Y0
	VANDNPD Y2, Y4, Y2

	// cr = re·refW, ci = im·refW, when there are cut weights.
	TESTQ  R13, R13
	JZ     blendstore
	VMULPD (R13), Y0, Y0
	VMULPD (R13), Y2, Y2
	ADDQ   $32, R13

blendstore:
	// Interleave into complex128s: re0 im0 re1 im1 | re2 im2 re3 im3.
	VUNPCKLPD   Y2, Y0, Y1
	VUNPCKHPD   Y2, Y0, Y3
	VINSERTF128 $1, X3, Y1, Y4
	VPERM2F128  $0x31, Y3, Y1, Y5
	VMOVUPD     Y4, (DI)
	VMOVUPD     Y5, 32(DI)

	// The least-squares terms, four slots at a time with scoreSlots'
	// products and parentheses: e = w·(cr·cr + ci·ci) and
	// c = w·(fr·cr + fi·ci).
	VMULPD      Y0, Y0, Y3
	VMULPD      Y2, Y2, Y5
	VADDPD      Y5, Y3, Y3
	VMULPD      (R12), Y3, Y3        // e
	VMOVUPD     (R11), X5            // fr0 fi0
	VINSERTF128 $1, 32(R11), Y5, Y5  // fr0 fi0 | fr2 fi2
	VMOVUPD     16(R11), X6          // fr1 fi1
	VINSERTF128 $1, 48(R11), Y6, Y6  // fr1 fi1 | fr3 fi3
	VUNPCKLPD   Y6, Y5, Y7           // fr0 fr1 fr2 fr3
	VUNPCKHPD   Y6, Y5, Y8           // fi0 fi1 fi2 fi3
	VMULPD      Y0, Y7, Y7
	VMULPD      Y2, Y8, Y8
	VADDPD      Y8, Y7, Y7
	VMULPD      (R12), Y7, Y7        // c

	// Added to (ec, cross) one slot after another, in slot order 0,
	// 1, 2, 3, as the scalar loop adds them.
	VUNPCKLPD    Y7, Y3, Y5 // e0 c0 | e2 c2
	VUNPCKHPD    Y7, Y3, Y6 // e1 c1 | e3 c3
	VADDPD       X5, X14, X14
	VADDPD       X6, X14, X14
	VEXTRACTF128 $1, Y5, X5
	VEXTRACTF128 $1, Y6, X6
	VADDPD       X5, X14, X14
	VADDPD       X6, X14, X14
	ADDQ         $64, R11
	ADDQ         $32, R12

	ADDQ $64, DI
	ADDQ $96, SI
	ADDQ $512, R8
	INCQ R9
	DECQ CX
	JNZ  blendloop

blenddone:
	VZEROUPPER
	MOVSD  X14, ec+168(FP)
	MOVHPD X14, cross+176(FP)
	RET

DATA one<>+0(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $8

// oobLanes[m] is the four-lane mask of the lanes set in nibble m.
DATA oobLanes<>+0(SB)/8, $0
DATA oobLanes<>+8(SB)/8, $0
DATA oobLanes<>+16(SB)/8, $0
DATA oobLanes<>+24(SB)/8, $0
DATA oobLanes<>+32(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+40(SB)/8, $0
DATA oobLanes<>+48(SB)/8, $0
DATA oobLanes<>+56(SB)/8, $0
DATA oobLanes<>+64(SB)/8, $0
DATA oobLanes<>+72(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+80(SB)/8, $0
DATA oobLanes<>+88(SB)/8, $0
DATA oobLanes<>+96(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+104(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+112(SB)/8, $0
DATA oobLanes<>+120(SB)/8, $0
DATA oobLanes<>+128(SB)/8, $0
DATA oobLanes<>+136(SB)/8, $0
DATA oobLanes<>+144(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+152(SB)/8, $0
DATA oobLanes<>+160(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+168(SB)/8, $0
DATA oobLanes<>+176(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+184(SB)/8, $0
DATA oobLanes<>+192(SB)/8, $0
DATA oobLanes<>+200(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+208(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+216(SB)/8, $0
DATA oobLanes<>+224(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+232(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+240(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+248(SB)/8, $0
DATA oobLanes<>+256(SB)/8, $0
DATA oobLanes<>+264(SB)/8, $0
DATA oobLanes<>+272(SB)/8, $0
DATA oobLanes<>+280(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+288(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+296(SB)/8, $0
DATA oobLanes<>+304(SB)/8, $0
DATA oobLanes<>+312(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+320(SB)/8, $0
DATA oobLanes<>+328(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+336(SB)/8, $0
DATA oobLanes<>+344(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+352(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+360(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+368(SB)/8, $0
DATA oobLanes<>+376(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+384(SB)/8, $0
DATA oobLanes<>+392(SB)/8, $0
DATA oobLanes<>+400(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+408(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+416(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+424(SB)/8, $0
DATA oobLanes<>+432(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+440(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+448(SB)/8, $0
DATA oobLanes<>+456(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+464(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+472(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+480(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+488(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+496(SB)/8, $0xffffffffffffffff
DATA oobLanes<>+504(SB)/8, $0xffffffffffffffff
GLOBL oobLanes<>(SB), RODATA|NOPTR, $512
