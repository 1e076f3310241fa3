//go:build !purego

#include "textflag.h"

// The ray kernel (see rayAVX2 in ray_amd64.go and Real). Each lane
// repeats, for one sample, the arithmetic of Real's position and of
// volume.Grid.Interp's straight-line path in the same order, so a lane
// value equals Interp's bit for bit:
//
//   - the position b + a·t is a VMULPD then a VADDPD, as
//     base.Add(za.Scale(float64(t))) computes it, never a fused
//     multiply-add; the lanes' t are exact small integers;
//   - the floor is VROUNDPD $1, which is math.Floor. On a lane that
//     passes the test below the floor is an integer in [0, l−2], so
//     p − ⌊p⌋ equals Interp's p − float64(int(⌊p⌋));
//   - the test is Interp's own, per lane and axis: 0 ≤ ⌊p⌋ ≤ l − 2,
//     the fraction f ≠ 0 and 1 − f ≠ 0. The compares are ordered, so a
//     NaN position fails them all. A group in which any lane fails is
//     left to Go, which sums it through Interp;
//   - the corner index ((x·l + y)·l + z) is exact in float64 below 2³¹,
//     and VCVTTPD2DQ makes it int32; eight VGATHERDPD load the corners;
//   - the eight terms ((w_x·w_y)·w_z)·v are added from +0 in Interp's
//     order, the weight products formed as Interp forms them. Zero
//     weights never get here, so NaN, ±Inf and −0 voxels multiply as
//     they do in Interp.
//
// The four lane values then join the ray sum one at a time, in t order.

DATA lanes<>+0(SB)/8, $0.0
DATA lanes<>+8(SB)/8, $1.0
DATA lanes<>+16(SB)/8, $2.0
DATA lanes<>+24(SB)/8, $3.0
GLOBL lanes<>(SB), RODATA|NOPTR, $32

DATA four<>+0(SB)/8, $4.0
DATA four<>+8(SB)/8, $4.0
DATA four<>+16(SB)/8, $4.0
DATA four<>+24(SB)/8, $4.0
GLOBL four<>(SB), RODATA|NOPTR, $32

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $8

// AXIS positions the group on one axis: Y0 = b + a·t from the
// broadcast a at A and b at B, FL = ⌊p⌋, F = p − ⌊p⌋, W = 1 − F, and
// ANDs the axis's four tests into Y10 (Y0 and TMP are clobbered).
#define AXIS(A, B, FL, F, W, TMP) \
	VBROADCASTSD A, Y0; \
	VMULPD       Y15, Y0, Y0; \
	VBROADCASTSD B, TMP; \
	VADDPD       Y0, TMP, Y0; \
	VROUNDPD     $1, Y0, FL; \
	VSUBPD       FL, Y0, F; \
	VSUBPD       F, Y12, W; \
	VXORPD       Y0, Y0, Y0; \
	VCMPPD       $0x1D, Y0, FL, TMP; \
	VANDPD       TMP, Y10, Y10; \
	VCMPPD       $0x12, Y14, FL, TMP; \
	VANDPD       TMP, Y10, Y10; \
	VCMPPD       $0x0C, Y0, F, TMP; \
	VANDPD       TMP, Y10, Y10; \
	VCMPPD       $0x0C, Y0, W, TMP; \
	VANDPD       TMP, Y10, Y10

// TERM adds one corner's term to the lane sums in Y8: the corner value
// at CORNER, indexed by X9, times the weight product W·WZ, formed
// first.
#define TERM(CORNER, W, WZ) \
	VPCMPEQD   Y10, Y10, Y10; \
	VGATHERDPD Y10, CORNER(X9*8), Y0; \
	VMULPD     WZ, W, Y1; \
	VMULPD     Y0, Y1, Y1; \
	VADDPD     Y1, Y8, Y8

// func rayAVX2(data *float64, l int, bx, by, bz, ax, ay, az float64, t0, groups int, sum float64) (s float64, done int)
//
// Registers across the loop: Y15 the lanes' t, Y14 l − 2, Y13 l, Y12
// 1.0, X11 the ray sum, R8–R11 the corner rows (data, + l, + l²,
// + l² + l), CX the group count and DX the groups done.
TEXT ·rayAVX2(SB), NOSPLIT, $0-104
	MOVQ         data+0(FP), R8
	MOVQ         l+8(FP), AX
	LEAQ         (R8)(AX*8), R9
	MOVQ         AX, BX
	IMULQ        AX, BX
	LEAQ         (R8)(BX*8), R10
	LEAQ         (R10)(AX*8), R11
	VCVTSI2SDQ   AX, X13, X13
	VBROADCASTSD X13, Y13
	LEAQ         -2(AX), BX
	VCVTSI2SDQ   BX, X14, X14
	VBROADCASTSD X14, Y14
	VBROADCASTSD one<>(SB), Y12
	MOVQ         t0+64(FP), BX
	VCVTSI2SDQ   BX, X15, X15
	VBROADCASTSD X15, Y15
	VADDPD       lanes<>(SB), Y15, Y15
	VMOVSD       sum+80(FP), X11
	MOVQ         groups+72(FP), CX
	XORQ         DX, DX

loop:
	CMPQ DX, CX
	JGE  exit

	// x: Y9 = ⌊p⌋, Y1 = f, Y2 = 1 − f; the mask starts all ones.
	VPCMPEQD Y10, Y10, Y10
	AXIS(ax+40(FP), bx+16(FP), Y9, Y1, Y2, Y3)

	// y: Y3 = ⌊p⌋, Y4 = f, Y5 = 1 − f; the index becomes x·l + y.
	AXIS(ay+48(FP), by+24(FP), Y3, Y4, Y5, Y6)
	VMULPD Y13, Y9, Y9
	VADDPD Y3, Y9, Y9

	// Interp's w00 = wx0·wy0 (Y6), w01 = wx0·fy (Y7), w10 = fx·wy0
	// (Y5) and w11 = fx·fy (Y4).
	VMULPD Y5, Y2, Y6
	VMULPD Y4, Y2, Y7
	VMULPD Y5, Y1, Y5
	VMULPD Y4, Y1, Y4

	// z: Y1 = ⌊p⌋, Y2 = fz, Y3 = wz0; the index becomes (x·l + y)·l + z.
	AXIS(az+56(FP), bz+32(FP), Y1, Y2, Y3, Y8)
	VMULPD Y13, Y9, Y9
	VADDPD Y1, Y9, Y9

	// A group with a lane off the straight-line path goes to Go.
	VMOVMSKPD Y10, AX
	CMPL      AX, $15
	JNE       exit

	VCVTTPD2DQY Y9, X9
	VXORPD      Y8, Y8, Y8
	TERM(0(R8), Y6, Y3)
	TERM(8(R8), Y6, Y2)
	TERM(0(R9), Y7, Y3)
	TERM(8(R9), Y7, Y2)
	TERM(0(R10), Y5, Y3)
	TERM(8(R10), Y5, Y2)
	TERM(0(R11), Y4, Y3)
	TERM(8(R11), Y4, Y2)

	// The lanes join the ray sum in t order.
	VADDSD       X8, X11, X11
	VPERMILPD    $1, X8, X0
	VADDSD       X0, X11, X11
	VEXTRACTF128 $1, Y8, X8
	VADDSD       X8, X11, X11
	VPERMILPD    $1, X8, X0
	VADDSD       X0, X11, X11

	VADDPD four<>(SB), Y15, Y15
	INCQ   DX
	JMP    loop

exit:
	VMOVSD     X11, s+88(FP)
	MOVQ       DX, done+96(FP)
	VZEROUPPER
	RET
