//go:build !purego

#include "textflag.h"

// The cut kernel's vector passes (see vectorCut in cutkernel_amd64.go).
// Every step repeats the arithmetic of the Go loop (sampleSlots,
// blendLane and scoreSlots) on amd64 in the same order, so the two
// agree bit for bit: AVX1 only (separate multiplies and adds, never a
// fused multiply-add, which the Go compiler does not emit on amd64),
// VROUNDPD $1 for math.Floor (−0 stays −0) and VCVTTPD2DQ for int32 of
// the floored value. Both passes cover only a cut's in-Nyquist prefix,
// where every slot is in band, so neither has a band test. A last
// partial group loads its live lanes with VMASKMOVPD, which reads
// nothing for a spare lane and gives it +0, and stores them with
// VMASKMOVPD, which writes nothing for a spare lane.

// LOCATE positions the group whose h and k are in Y9 and Y10 in the
// frame held in Y0–Y6, writes each lane's fractions to (R10) and
// candidate cell to (R9), and leaves in BX bit j set when lane j's
// candidate differs from its key at (R8). It repeats sampleSlots'
// arithmetic: x = (xx·h + yx·k)·pad and likewise y and z, then per
// axis the floor, the fraction and the int32 of the floor.
#define LOCATE \
	VMULPD      Y9, Y0, Y11; \
	VMULPD      Y10, Y1, Y12; \
	VADDPD      Y12, Y11, Y11; \
	VMULPD      Y6, Y11, Y11; \
	VMULPD      Y9, Y2, Y12; \
	VMULPD      Y10, Y3, Y13; \
	VADDPD      Y13, Y12, Y12; \
	VMULPD      Y6, Y12, Y12; \
	VMULPD      Y9, Y4, Y13; \
	VMULPD      Y10, Y5, Y14; \
	VADDPD      Y14, Y13, Y13; \
	VMULPD      Y6, Y13, Y13; \
	VROUNDPD    $1, Y11, Y9; \
	VSUBPD      Y9, Y11, Y11; \
	VMOVUPD     Y11, (R10); \
	VCVTTPD2DQY Y9, X9; \
	VMOVDQU     X9, (R9); \
	VPCMPEQD    (R8), X9, X9; \
	VROUNDPD    $1, Y12, Y10; \
	VSUBPD      Y10, Y12, Y12; \
	VMOVUPD     Y12, 32(R10); \
	VCVTTPD2DQY Y10, X10; \
	VMOVDQU     X10, 16(R9); \
	VPCMPEQD    16(R8), X10, X10; \
	VPAND       X10, X9, X9; \
	VROUNDPD    $1, Y13, Y10; \
	VSUBPD      Y10, Y13, Y13; \
	VMOVUPD     Y13, 64(R10); \
	VCVTTPD2DQY Y10, X10; \
	VMOVDQU     X10, 32(R9); \
	VPCMPEQD    32(R8), X10, X10; \
	VPAND       X10, X9, X9; \
	VMOVMSKPS   X9, BX; \
	XORL        $15, BX

// func locateGroupsAVX(fh, fk []float64, f *cutFrame, keys, cand [][3][4]int32, frac [][3][4]float64, mask []uint8)
TEXT ·locateGroupsAVX(SB), NOSPLIT, $0-152
	MOVQ fh_base+0(FP), SI
	MOVQ fh_len+8(FP), CX
	MOVQ fk_base+24(FP), DI
	MOVQ f+48(FP), AX
	MOVQ keys_base+56(FP), R8
	MOVQ cand_base+80(FP), R9
	MOVQ frac_base+104(FP), R10
	MOVQ mask_base+128(FP), R11
	MOVQ CX, DX
	ANDQ $3, DX // lanes of a last partial group
	SHRQ $2, CX // whole groups

	// The frame, one field per register in all four lanes.
	VBROADCASTSD 0(AX), Y0  // xx
	VBROADCASTSD 8(AX), Y1  // yx
	VBROADCASTSD 16(AX), Y2 // xy
	VBROADCASTSD 24(AX), Y3 // yy
	VBROADCASTSD 32(AX), Y4 // xz
	VBROADCASTSD 40(AX), Y5 // yz
	VBROADCASTSD 48(AX), Y6 // pad
	TESTQ        CX, CX
	JZ           loctail

locloop:
	VMOVUPD (SI), Y9  // h
	VMOVUPD (DI), Y10 // k
	LOCATE
	MOVB    BX, (R11)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $48, R8
	ADDQ    $48, R9
	ADDQ    $96, R10
	INCQ    R11
	DECQ    CX
	JNZ     locloop

loctail:
	// A last partial group: spare lanes load h = k = 0 and are never
	// marked missed, so nothing is gathered into them.
	TESTQ      DX, DX
	JZ         locdone
	LEAQ       laneMask<>(SB), AX
	SHLQ       $5, DX
	VMOVUPD    (AX)(DX*1), Y7
	VMASKMOVPD (SI), Y7, Y9
	VMASKMOVPD (DI), Y7, Y10
	LOCATE
	VMOVMSKPD  Y7, AX
	ANDL       AX, BX
	MOVB       BX, (R11)

locdone:
	VZEROUPPER
	RET

// BLEND forms blend's weights from the fractions at (SI), as blend
// forms them, and the group's re into Y0 and im into Y2 from the
// corners at (R8): w000·c000 + w001·c001 + … + w111·c111, left to
// right, the real parts from the lower eight rows and the imaginary
// parts from the upper eight. Y15 holds 1 in every lane.
#define BLEND \
	VMOVUPD (SI), Y0; \
	VMOVUPD 32(SI), Y1; \
	VMOVUPD 64(SI), Y2; \
	VSUBPD  Y0, Y15, Y3; \
	VSUBPD  Y1, Y15, Y4; \
	VSUBPD  Y2, Y15, Y5; \
	VMULPD  Y4, Y3, Y6; \
	VMULPD  Y1, Y3, Y7; \
	VMULPD  Y4, Y0, Y8; \
	VMULPD  Y1, Y0, Y9; \
	VMULPD  Y5, Y6, Y10; \
	VMULPD  Y2, Y6, Y6; \
	VMULPD  Y5, Y7, Y11; \
	VMULPD  Y2, Y7, Y7; \
	VMULPD  Y5, Y8, Y12; \
	VMULPD  Y2, Y8, Y8; \
	VMULPD  Y5, Y9, Y13; \
	VMULPD  Y2, Y9, Y9; \
	VMULPD  (R8), Y10, Y0; \
	VMULPD  32(R8), Y6, Y1; \
	VADDPD  Y1, Y0, Y0; \
	VMULPD  64(R8), Y11, Y1; \
	VADDPD  Y1, Y0, Y0; \
	VMULPD  96(R8), Y7, Y1; \
	VADDPD  Y1, Y0, Y0; \
	VMULPD  128(R8), Y12, Y1; \
	VADDPD  Y1, Y0, Y0; \
	VMULPD  160(R8), Y8, Y1; \
	VADDPD  Y1, Y0, Y0; \
	VMULPD  192(R8), Y13, Y1; \
	VADDPD  Y1, Y0, Y0; \
	VMULPD  224(R8), Y9, Y1; \
	VADDPD  Y1, Y0, Y0; \
	VMULPD  256(R8), Y10, Y2; \
	VMULPD  288(R8), Y6, Y3; \
	VADDPD  Y3, Y2, Y2; \
	VMULPD  320(R8), Y11, Y3; \
	VADDPD  Y3, Y2, Y2; \
	VMULPD  352(R8), Y7, Y3; \
	VADDPD  Y3, Y2, Y2; \
	VMULPD  384(R8), Y12, Y3; \
	VADDPD  Y3, Y2, Y2; \
	VMULPD  416(R8), Y8, Y3; \
	VADDPD  Y3, Y2, Y2; \
	VMULPD  448(R8), Y13, Y3; \
	VADDPD  Y3, Y2, Y2; \
	VMULPD  480(R8), Y9, Y3; \
	VADDPD  Y3, Y2, Y2

// INTERLEAVE turns re (Y0) and im (Y2) into complex128s: Y4 holds re0
// im0 re1 im1 and Y5 re2 im2 re3 im3.
#define INTERLEAVE \
	VUNPCKLPD   Y2, Y0, Y1; \
	VUNPCKHPD   Y2, Y0, Y3; \
	VINSERTF128 $1, X3, Y1, Y4; \
	VPERM2F128  $0x31, Y3, Y1, Y5

// CROSS forms fr·cr + fi·ci into Y7 from the band values fr0 fi0 | fr2
// fi2 in Y5 and fr1 fi1 | fr3 fi3 in Y6 and the cut in Y0 (re) and Y2
// (im), with scoreSlots' products and parentheses.
#define CROSS \
	VUNPCKLPD Y6, Y5, Y7; \
	VUNPCKHPD Y6, Y5, Y8; \
	VMULPD    Y0, Y7, Y7; \
	VMULPD    Y2, Y8, Y8; \
	VADDPD    Y8, Y7, Y7

// SUMS adds the four slots' terms e (Y3) and c (Y7) to (ec, cross) in
// X14 one slot after another, in slot order 0, 1, 2, 3, as the scalar
// loop adds them.
#define SUMS \
	VUNPCKLPD    Y7, Y3, Y5; \
	VUNPCKHPD    Y7, Y3, Y6; \
	VADDPD       X5, X14, X14; \
	VADDPD       X6, X14, X14; \
	VEXTRACTF128 $1, Y5, X5; \
	VEXTRACTF128 $1, Y6, X6; \
	VADDPD       X5, X14, X14; \
	VADDPD       X6, X14, X14

// func blendGroupsAVX(dst []complex128, frac [][3][4]float64, corners [][16][4]float64, vals []complex128, wt, refW []float64) (ec, cross float64)
TEXT ·blendGroupsAVX(SB), NOSPLIT, $0-160
	MOVQ         dst_base+0(FP), DI // nil: the cut is not stored
	MOVQ         frac_base+24(FP), SI
	MOVQ         corners_base+48(FP), R8
	MOVQ         vals_base+72(FP), R11
	MOVQ         vals_len+80(FP), CX
	MOVQ         wt_base+96(FP), R12
	MOVQ         refW_base+120(FP), R13 // nil: no cut weights
	VXORPD       X14, X14, X14          // the sums (ec, cross), one lane each
	VBROADCASTSD one<>(SB), Y15
	MOVQ         CX, DX
	ANDQ         $3, DX                 // lanes of a last partial group
	SHRQ         $2, CX                 // whole groups
	TESTQ        CX, CX
	JZ           blendtail

blendloop:
	BLEND

	// cr = re·refW, ci = im·refW, when there are cut weights.
	TESTQ  R13, R13
	JZ     blendnoref
	VMULPD (R13), Y0, Y0
	VMULPD (R13), Y2, Y2
	ADDQ   $32, R13

blendnoref:
	TESTQ   DI, DI
	JZ      blendscore
	INTERLEAVE
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    $64, DI

blendscore:
	// The least-squares terms, four slots at a time with scoreSlots'
	// products and parentheses: e = w·(cr·cr + ci·ci) and
	// c = w·(fr·cr + fi·ci).
	VMULPD      Y0, Y0, Y3
	VMULPD      Y2, Y2, Y5
	VADDPD      Y5, Y3, Y3
	VMULPD      (R12), Y3, Y3       // e
	VMOVUPD     (R11), X5           // fr0 fi0
	VINSERTF128 $1, 32(R11), Y5, Y5 // fr0 fi0 | fr2 fi2
	VMOVUPD     16(R11), X6         // fr1 fi1
	VINSERTF128 $1, 48(R11), Y6, Y6 // fr1 fi1 | fr3 fi3
	CROSS
	VMULPD      (R12), Y7, Y7       // c
	SUMS

	ADDQ $64, R11
	ADDQ $32, R12
	ADDQ $96, SI
	ADDQ $512, R8
	DECQ CX
	JNZ  blendloop

blendtail:
	// A last partial group of t lanes: the same arithmetic on masked
	// loads, a masked store, and e and c masked to +0 on the spare
	// lanes. The sums are never −0 (ec is a sum of non-negative terms
	// from +0, and a round-to-nearest sum started at +0 cannot become
	// −0), so adding +0 leaves their bits as they were; masking, not
	// weighting by zero, keeps a NaN or ±Inf in a spare lane's corners
	// out of them.
	TESTQ   DX, DX
	JZ      blenddone
	BLEND
	LEAQ    laneMask<>(SB), AX
	MOVQ    DX, BX
	SHLQ    $5, BX
	VMOVUPD (AX)(BX*1), Y13   // slots 0…t−1
	LEAQ    pairMask<>(SB), AX
	SHLQ    $6, DX
	VMOVUPD (AX)(DX*1), Y11   // their complex128s among slots 0, 1
	VMOVUPD 32(AX)(DX*1), Y12 // and among slots 2, 3
	TESTQ   R13, R13
	JZ      tailnoref
	VMASKMOVPD (R13), Y13, Y4
	VMULPD     Y4, Y0, Y0
	VMULPD     Y4, Y2, Y2

tailnoref:
	TESTQ      DI, DI
	JZ         tailscore
	INTERLEAVE
	VMASKMOVPD Y4, Y11, (DI)
	VMASKMOVPD Y5, Y12, 32(DI)

tailscore:
	VMULPD     Y0, Y0, Y3
	VMULPD     Y2, Y2, Y5
	VADDPD     Y5, Y3, Y3
	VMASKMOVPD (R12), Y13, Y4
	VMULPD     Y4, Y3, Y3        // e
	VMASKMOVPD (R11), Y11, Y6    // fr0 fi0 fr1 fi1
	VMASKMOVPD 32(R11), Y12, Y7  // fr2 fi2 fr3 fi3
	VPERM2F128 $0x20, Y7, Y6, Y5 // fr0 fi0 | fr2 fi2
	VPERM2F128 $0x31, Y7, Y6, Y6 // fr1 fi1 | fr3 fi3
	CROSS
	VMULPD     Y4, Y7, Y7        // c
	VANDPD     Y13, Y3, Y3
	VANDPD     Y13, Y7, Y7
	SUMS

blenddone:
	VZEROUPPER
	MOVSD  X14, ec+144(FP)
	MOVHPD X14, cross+152(FP)
	RET

DATA one<>+0(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $8

// laneMask[t] sets the first t of four lanes (t = 0…3).
DATA laneMask<>+0(SB)/8, $0
DATA laneMask<>+8(SB)/8, $0
DATA laneMask<>+16(SB)/8, $0
DATA laneMask<>+24(SB)/8, $0
DATA laneMask<>+32(SB)/8, $0xffffffffffffffff
DATA laneMask<>+40(SB)/8, $0
DATA laneMask<>+48(SB)/8, $0
DATA laneMask<>+56(SB)/8, $0
DATA laneMask<>+64(SB)/8, $0xffffffffffffffff
DATA laneMask<>+72(SB)/8, $0xffffffffffffffff
DATA laneMask<>+80(SB)/8, $0
DATA laneMask<>+88(SB)/8, $0
DATA laneMask<>+96(SB)/8, $0xffffffffffffffff
DATA laneMask<>+104(SB)/8, $0xffffffffffffffff
DATA laneMask<>+112(SB)/8, $0xffffffffffffffff
DATA laneMask<>+120(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $128

// pairMask[t] sets the real and imaginary parts of the first t of four
// complex128 slots, over two registers (t = 0…3).
DATA pairMask<>+0(SB)/8, $0
DATA pairMask<>+8(SB)/8, $0
DATA pairMask<>+16(SB)/8, $0
DATA pairMask<>+24(SB)/8, $0
DATA pairMask<>+32(SB)/8, $0
DATA pairMask<>+40(SB)/8, $0
DATA pairMask<>+48(SB)/8, $0
DATA pairMask<>+56(SB)/8, $0
DATA pairMask<>+64(SB)/8, $0xffffffffffffffff
DATA pairMask<>+72(SB)/8, $0xffffffffffffffff
DATA pairMask<>+80(SB)/8, $0
DATA pairMask<>+88(SB)/8, $0
DATA pairMask<>+96(SB)/8, $0
DATA pairMask<>+104(SB)/8, $0
DATA pairMask<>+112(SB)/8, $0
DATA pairMask<>+120(SB)/8, $0
DATA pairMask<>+128(SB)/8, $0xffffffffffffffff
DATA pairMask<>+136(SB)/8, $0xffffffffffffffff
DATA pairMask<>+144(SB)/8, $0xffffffffffffffff
DATA pairMask<>+152(SB)/8, $0xffffffffffffffff
DATA pairMask<>+160(SB)/8, $0
DATA pairMask<>+168(SB)/8, $0
DATA pairMask<>+176(SB)/8, $0
DATA pairMask<>+184(SB)/8, $0
DATA pairMask<>+192(SB)/8, $0xffffffffffffffff
DATA pairMask<>+200(SB)/8, $0xffffffffffffffff
DATA pairMask<>+208(SB)/8, $0xffffffffffffffff
DATA pairMask<>+216(SB)/8, $0xffffffffffffffff
DATA pairMask<>+224(SB)/8, $0xffffffffffffffff
DATA pairMask<>+232(SB)/8, $0xffffffffffffffff
DATA pairMask<>+240(SB)/8, $0
DATA pairMask<>+248(SB)/8, $0
GLOBL pairMask<>(SB), RODATA|NOPTR, $256
