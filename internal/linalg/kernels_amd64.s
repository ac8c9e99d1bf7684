#include "textflag.h"

// In Go's operand order "VMULPD A, B, D" sets D = B·A; B is the first
// source, the operand x86 returns when both inputs are NaN. Every sum
// and difference below takes the Go expression's left operand as its
// first source, as the loop Mul inlined before these kernels compiled
// to. Which payload a Go sum of two NaNs keeps is the compiler's
// choice, so only non-NaN results are defined bit for bit.

// func rotateRowsAVX2(rp, rq []float64, c, s float64)
TEXT ·rotateRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ         rp_base+0(FP), DI
	MOVQ         rp_len+8(FP), CX
	MOVQ         rq_base+24(FP), SI
	VBROADCASTSD c+48(FP), Y0
	VBROADCASTSD s+56(FP), Y1
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX

rot4:
	CMPQ    AX, DX
	JGE     rot1
	VMOVUPD (DI)(AX*8), Y2 // x
	VMOVUPD (SI)(AX*8), Y3 // y
	VMULPD  Y0, Y2, Y4     // x·c
	VMULPD  Y1, Y3, Y5     // y·s
	VSUBPD  Y5, Y4, Y4     // x·c − y·s
	VMULPD  Y1, Y2, Y6     // x·s
	VMULPD  Y0, Y3, Y7     // y·c
	VADDPD  Y7, Y6, Y6     // x·s + y·c
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y6, (SI)(AX*8)
	ADDQ    $4, AX
	JMP     rot4

rot1:
	CMPQ   AX, CX
	JGE    rotdone
	VMOVSD (DI)(AX*8), X2
	VMOVSD (SI)(AX*8), X3
	VMULSD X0, X2, X4
	VMULSD X1, X3, X5
	VSUBSD X5, X4, X4
	VMULSD X1, X2, X6
	VMULSD X0, X3, X7
	VADDSD X7, X6, X6
	VMOVSD X4, (DI)(AX*8)
	VMOVSD X6, (SI)(AX*8)
	INCQ   AX
	JMP    rot1

rotdone:
	VZEROUPPER
	RET

// func replayAVX2(d []float64, ld, p int, rots []rotation)
//
// BX, CX, DX and R8 point at rows 0-3, R9-R12 at rows 4-7. Y2 and Y3
// carry element p of those rows through the steps; each step takes a
// rotation {q, c, s} (24 bytes) and computes y ← x·s + y·c and
// x ← x·c − y·s on all eight lanes, y being element q. The two
// registers' steps are independent, so each hides the other's
// multiply-to-subtract latency. Where four steps in a row have
// consecutive q, each row's four y are loaded and stored as two
// 16-byte pairs and transposed into the lanes (VUNPCKLPD/VUNPCKHPD);
// any other step gathers and scatters its y one element per row.
TEXT ·replayAVX2(SB), NOSPLIT, $0-64
	MOVQ         d_base+0(FP), BX
	MOVQ         ld+24(FP), AX
	SHLQ         $3, AX               // row stride in bytes
	LEAQ         (BX)(AX*1), CX
	LEAQ         (CX)(AX*1), DX
	LEAQ         (DX)(AX*1), R8
	LEAQ         (R8)(AX*1), R9
	LEAQ         (R9)(AX*1), R10
	LEAQ         (R10)(AX*1), R11
	LEAQ         (R11)(AX*1), R12
	MOVQ         p+32(FP), DI
	MOVQ         rots_base+40(FP), SI
	MOVQ         rots_len+48(FP), R13
	LEAQ         (R13)(R13*2), R13
	LEAQ         (SI)(R13*8), R13     // end of rots
	VMOVSD       (BX)(DI*8), X2
	VMOVHPD      (CX)(DI*8), X2, X2
	VMOVSD       (DX)(DI*8), X6
	VMOVHPD      (R8)(DI*8), X6, X6
	VINSERTF128  $1, X6, Y2, Y2       // x, rows 0-3
	VMOVSD       (R9)(DI*8), X3
	VMOVHPD      (R10)(DI*8), X3, X3
	VMOVSD       (R11)(DI*8), X7
	VMOVHPD      (R12)(DI*8), X7, X7
	VINSERTF128  $1, X7, Y3, Y3       // x, rows 4-7

replaystep:
	CMPQ         SI, R13
	JAE          replaydone
	MOVQ         (SI), AX             // q
	LEAQ         96(SI), DI
	CMPQ         DI, R13
	JA           replayone
	LEAQ         1(AX), DI
	CMPQ         DI, 24(SI)
	JNE          replayone
	INCQ         DI
	CMPQ         DI, 48(SI)
	JNE          replayone
	INCQ         DI
	CMPQ         DI, 72(SI)
	JNE          replayone
	VMOVUPD      (BX)(AX*8), X4
	VINSERTF128  $1, (DX)(AX*8), Y4, Y4
	VMOVUPD      (CX)(AX*8), X5
	VINSERTF128  $1, (R8)(AX*8), Y5, Y5
	VMOVUPD      16(BX)(AX*8), X6
	VINSERTF128  $1, 16(DX)(AX*8), Y6, Y6
	VMOVUPD      16(CX)(AX*8), X7
	VINSERTF128  $1, 16(R8)(AX*8), Y7, Y7
	VUNPCKLPD    Y5, Y4, Y8
	VUNPCKHPD    Y5, Y4, Y9
	VUNPCKLPD    Y7, Y6, Y10
	VUNPCKHPD    Y7, Y6, Y11
	VMOVUPD      (R9)(AX*8), X4
	VINSERTF128  $1, (R11)(AX*8), Y4, Y4
	VMOVUPD      (R10)(AX*8), X5
	VINSERTF128  $1, (R12)(AX*8), Y5, Y5
	VMOVUPD      16(R9)(AX*8), X6
	VINSERTF128  $1, 16(R11)(AX*8), Y6, Y6
	VMOVUPD      16(R10)(AX*8), X7
	VINSERTF128  $1, 16(R12)(AX*8), Y7, Y7
	VUNPCKLPD    Y5, Y4, Y12
	VUNPCKHPD    Y5, Y4, Y13
	VUNPCKLPD    Y7, Y6, Y14
	VUNPCKHPD    Y7, Y6, Y15
	VBROADCASTSD 8(SI), Y0
	VBROADCASTSD 16(SI), Y1
	VMULPD       Y1, Y2, Y4
	VMULPD       Y0, Y8, Y5
	VMULPD       Y0, Y2, Y6
	VMULPD       Y1, Y8, Y7
	VADDPD       Y5, Y4, Y8
	VSUBPD       Y7, Y6, Y2
	VMULPD       Y1, Y3, Y4
	VMULPD       Y0, Y12, Y5
	VMULPD       Y0, Y3, Y6
	VMULPD       Y1, Y12, Y7
	VADDPD       Y5, Y4, Y12
	VSUBPD       Y7, Y6, Y3
	VBROADCASTSD 32(SI), Y0
	VBROADCASTSD 40(SI), Y1
	VMULPD       Y1, Y2, Y4
	VMULPD       Y0, Y9, Y5
	VMULPD       Y0, Y2, Y6
	VMULPD       Y1, Y9, Y7
	VADDPD       Y5, Y4, Y9
	VSUBPD       Y7, Y6, Y2
	VMULPD       Y1, Y3, Y4
	VMULPD       Y0, Y13, Y5
	VMULPD       Y0, Y3, Y6
	VMULPD       Y1, Y13, Y7
	VADDPD       Y5, Y4, Y13
	VSUBPD       Y7, Y6, Y3
	VBROADCASTSD 56(SI), Y0
	VBROADCASTSD 64(SI), Y1
	VMULPD       Y1, Y2, Y4
	VMULPD       Y0, Y10, Y5
	VMULPD       Y0, Y2, Y6
	VMULPD       Y1, Y10, Y7
	VADDPD       Y5, Y4, Y10
	VSUBPD       Y7, Y6, Y2
	VMULPD       Y1, Y3, Y4
	VMULPD       Y0, Y14, Y5
	VMULPD       Y0, Y3, Y6
	VMULPD       Y1, Y14, Y7
	VADDPD       Y5, Y4, Y14
	VSUBPD       Y7, Y6, Y3
	VBROADCASTSD 80(SI), Y0
	VBROADCASTSD 88(SI), Y1
	VMULPD       Y1, Y2, Y4
	VMULPD       Y0, Y11, Y5
	VMULPD       Y0, Y2, Y6
	VMULPD       Y1, Y11, Y7
	VADDPD       Y5, Y4, Y11
	VSUBPD       Y7, Y6, Y2
	VMULPD       Y1, Y3, Y4
	VMULPD       Y0, Y15, Y5
	VMULPD       Y0, Y3, Y6
	VMULPD       Y1, Y15, Y7
	VADDPD       Y5, Y4, Y15
	VSUBPD       Y7, Y6, Y3
	VUNPCKLPD    Y9, Y8, Y4
	VUNPCKHPD    Y9, Y8, Y5
	VUNPCKLPD    Y11, Y10, Y6
	VUNPCKHPD    Y11, Y10, Y7
	VMOVUPD      X4, (BX)(AX*8)
	VEXTRACTF128 $1, Y4, (DX)(AX*8)
	VMOVUPD      X5, (CX)(AX*8)
	VEXTRACTF128 $1, Y5, (R8)(AX*8)
	VMOVUPD      X6, 16(BX)(AX*8)
	VEXTRACTF128 $1, Y6, 16(DX)(AX*8)
	VMOVUPD      X7, 16(CX)(AX*8)
	VEXTRACTF128 $1, Y7, 16(R8)(AX*8)
	VUNPCKLPD    Y13, Y12, Y4
	VUNPCKHPD    Y13, Y12, Y5
	VUNPCKLPD    Y15, Y14, Y6
	VUNPCKHPD    Y15, Y14, Y7
	VMOVUPD      X4, (R9)(AX*8)
	VEXTRACTF128 $1, Y4, (R11)(AX*8)
	VMOVUPD      X5, (R10)(AX*8)
	VEXTRACTF128 $1, Y5, (R12)(AX*8)
	VMOVUPD      X6, 16(R9)(AX*8)
	VEXTRACTF128 $1, Y6, 16(R11)(AX*8)
	VMOVUPD      X7, 16(R10)(AX*8)
	VEXTRACTF128 $1, Y7, 16(R12)(AX*8)
	ADDQ         $96, SI
	JMP          replaystep

replayone:
	VBROADCASTSD 8(SI), Y0            // c
	VBROADCASTSD 16(SI), Y1           // s
	VMOVSD       (BX)(AX*8), X8
	VMOVHPD      (CX)(AX*8), X8, X8
	VMOVSD       (DX)(AX*8), X6
	VMOVHPD      (R8)(AX*8), X6, X6
	VINSERTF128  $1, X6, Y8, Y8       // y, rows 0-3
	VMOVSD       (R9)(AX*8), X12
	VMOVHPD      (R10)(AX*8), X12, X12
	VMOVSD       (R11)(AX*8), X7
	VMOVHPD      (R12)(AX*8), X7, X7
	VINSERTF128  $1, X7, Y12, Y12     // y, rows 4-7
	VMULPD       Y1, Y2, Y4           // x·s
	VMULPD       Y0, Y8, Y5           // y·c
	VMULPD       Y0, Y2, Y6           // x·c
	VMULPD       Y1, Y8, Y7           // y·s
	VADDPD       Y5, Y4, Y8           // y ← x·s + y·c
	VSUBPD       Y7, Y6, Y2           // x ← x·c − y·s
	VMULPD       Y1, Y3, Y4
	VMULPD       Y0, Y12, Y5
	VMULPD       Y0, Y3, Y6
	VMULPD       Y1, Y12, Y7
	VADDPD       Y5, Y4, Y12
	VSUBPD       Y7, Y6, Y3
	VMOVSD       X8, (BX)(AX*8)
	VMOVHPD      X8, (CX)(AX*8)
	VEXTRACTF128 $1, Y8, X6
	VMOVSD       X6, (DX)(AX*8)
	VMOVHPD      X6, (R8)(AX*8)
	VMOVSD       X12, (R9)(AX*8)
	VMOVHPD      X12, (R10)(AX*8)
	VEXTRACTF128 $1, Y12, X7
	VMOVSD       X7, (R11)(AX*8)
	VMOVHPD      X7, (R12)(AX*8)
	ADDQ         $24, SI
	JMP          replaystep

replaydone:
	MOVQ         p+32(FP), DI
	VMOVSD       X2, (BX)(DI*8)
	VMOVHPD      X2, (CX)(DI*8)
	VEXTRACTF128 $1, Y2, X6
	VMOVSD       X6, (DX)(DI*8)
	VMOVHPD      X6, (R8)(DI*8)
	VMOVSD       X3, (R9)(DI*8)
	VMOVHPD      X3, (R10)(DI*8)
	VEXTRACTF128 $1, Y3, X7
	VMOVSD       X7, (R11)(DI*8)
	VMOVHPD      X7, (R12)(DI*8)
	VZEROUPPER
	RET

// func axpyAVX2(dst, src []float64, a float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX

axpy4:
	CMPQ    AX, DX
	JGE     axpy1
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1     // src·a
	VMOVUPD (DI)(AX*8), Y2
	VADDPD  Y1, Y2, Y2     // dst + src·a
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     axpy4

axpy1:
	CMPQ   AX, CX
	JGE    axpydone
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD (DI)(AX*8), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX
	JMP    axpy1

axpydone:
	VZEROUPPER
	RET

// The sigmoid kernel's constants. LOG2E, LN2U, LN2L and the Taylor
// coefficients are those of $GOROOT/src/math/exp_amd64.s, the
// assembly behind math.Exp on amd64.
DATA sigmoidconst<>+0(SB)/8, $0x8000000000000000  // sign bit
DATA sigmoidconst<>+8(SB)/8, $708.0               // the kernel computes z ≥ −708 and clamps z at 708
DATA sigmoidconst<>+16(SB)/8, $1.4426950408889634073599246810018920  // LOG2E
DATA sigmoidconst<>+24(SB)/8, $0.69314718055966295651160180568695068359375  // LN2U
DATA sigmoidconst<>+32(SB)/8, $0.28235290563031577122588448175013436025525412068e-12  // LN2L
DATA sigmoidconst<>+40(SB)/8, $0.0625
DATA sigmoidconst<>+48(SB)/8, $1.0
DATA sigmoidconst<>+56(SB)/8, $2.0
DATA sigmoidconst<>+64(SB)/8, $0x3FF                // exponent bias
DATA sigmoidconst<>+72(SB)/8, $2.4801587301587301587e-5
DATA sigmoidconst<>+80(SB)/8, $1.9841269841269841270e-4
DATA sigmoidconst<>+88(SB)/8, $1.3888888888888888889e-3
DATA sigmoidconst<>+96(SB)/8, $8.3333333333333333333e-3
DATA sigmoidconst<>+104(SB)/8, $4.1666666666666666667e-2
DATA sigmoidconst<>+112(SB)/8, $1.6666666666666666667e-1
DATA sigmoidconst<>+120(SB)/8, $0.5
DATA sigmoidconst<>+128(SB)/8, $-1075.5            // x·LOG2E at or below it rounds to k ≤ −1076: exp underflows to +0
GLOBL sigmoidconst<>(SB), RODATA|NOPTR, $136

// func sigmoidAVX2FMA(dst, z []float64) int
//
// Each lane computes e = exp(x) for x = −z when z ≥ 0 and x = z
// otherwise, by the avxfma branch of math.Exp instruction for
// instruction: k = round(x·LOG2E) by VCVTPD2DQ, r = x − k·LN2U − k·LN2L
// by two fused steps, r/16, the fused Taylor polynomial, four
// r ← r·(r+2) steps (the last fused with +1) and the scaling by 2^k.
// x ≥ −708 keeps k + 1023 ≥ 2, so math.Exp's overflow, denormal and
// non-finite paths never apply. The lane then returns 1/(1+e) for
// z ≥ 0 and e/(1+e) otherwise, as Sigmoid does. A lane with z > 708,
// +Inf included, takes x = −708 instead: its e is then below 2^−53, as
// Sigmoid's is, so 1 + e rounds to 1 and both return exactly 1. A lane
// with x·LOG2E ≤ −1075.5, −Inf included, has k ≤ −1076, so k + 1023 <
// −52 and math.Exp takes its underflow path and returns +0 (x = −Inf
// returns +0 too), as does Sigmoid: the lane is set to +0. A block
// holding a NaN lane, or a lane between that cutoff and −708, whose
// exp takes math.Exp's denormal path, stops the kernel.
TEXT ·sigmoidAVX2FMA(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         z_base+24(FP), SI
	MOVQ         z_len+32(FP), CX
	ANDQ         $-4, CX
	XORQ         AX, AX
	VBROADCASTSD sigmoidconst<>+0(SB), Y15
	VBROADCASTSD sigmoidconst<>+8(SB), Y14
	VBROADCASTSD sigmoidconst<>+16(SB), Y13
	VBROADCASTSD sigmoidconst<>+24(SB), Y12
	VBROADCASTSD sigmoidconst<>+32(SB), Y11
	VBROADCASTSD sigmoidconst<>+40(SB), Y10
	VBROADCASTSD sigmoidconst<>+48(SB), Y9
	VBROADCASTSD sigmoidconst<>+56(SB), Y8
	VPBROADCASTQ sigmoidconst<>+64(SB), Y7
	VXORPD       Y6, Y6, Y6

sig4:
	CMPQ         AX, CX
	JGE          sigdone
	VMOVUPD      (SI)(AX*8), Y0       // z
	VCMPPD       $0x1D, Y6, Y0, Y1    // z ≥ 0
	VMINPD       Y14, Y0, Y2          // min(z, 708)
	VXORPD       Y15, Y2, Y2
	VBLENDVPD    Y1, Y2, Y0, Y2       // x = z ≥ 0 ? −min(z, 708) : z; NaN stays
	VMULPD       Y13, Y2, Y3          // x·LOG2E
	VBROADCASTSD sigmoidconst<>+128(SB), Y4
	VCMPPD       $0x02, Y4, Y3, Y0    // x·LOG2E ≤ −1075.5: e is +0, false for NaN
	VXORPD       Y15, Y2, Y4          // −x
	VCMPPD       $0x02, Y14, Y4, Y4   // −x ≤ 708, false for NaN
	VORPD        Y0, Y4, Y4
	VMOVMSKPD    Y4, BX
	CMPQ         BX, $15
	JNE          sigdone
	VCVTPD2DQY   Y3, X3               // k, rounded to nearest
	VCVTDQ2PD    X3, Y4
	VFNMADD231PD Y12, Y4, Y2          // r = x − k·LN2U
	VFNMADD231PD Y11, Y4, Y2          // r −= k·LN2L
	VMULPD       Y10, Y2, Y2          // r/16
	VBROADCASTSD sigmoidconst<>+72(SB), Y4
	VBROADCASTSD sigmoidconst<>+80(SB), Y5
	VFMADD213PD  Y5, Y2, Y4           // p = p·r + c
	VBROADCASTSD sigmoidconst<>+88(SB), Y5
	VFMADD213PD  Y5, Y2, Y4
	VBROADCASTSD sigmoidconst<>+96(SB), Y5
	VFMADD213PD  Y5, Y2, Y4
	VBROADCASTSD sigmoidconst<>+104(SB), Y5
	VFMADD213PD  Y5, Y2, Y4
	VBROADCASTSD sigmoidconst<>+112(SB), Y5
	VFMADD213PD  Y5, Y2, Y4
	VBROADCASTSD sigmoidconst<>+120(SB), Y5
	VFMADD213PD  Y5, Y2, Y4
	VFMADD213PD  Y9, Y2, Y4           // p = p·r + 1
	VMULPD       Y4, Y2, Y2           // r·p
	VADDPD       Y8, Y2, Y4
	VMULPD       Y4, Y2, Y2           // r·(r+2)
	VADDPD       Y8, Y2, Y4
	VMULPD       Y4, Y2, Y2
	VADDPD       Y8, Y2, Y4
	VMULPD       Y4, Y2, Y2
	VADDPD       Y8, Y2, Y4
	VFMADD213PD  Y9, Y4, Y2           // r·(r+2) + 1
	VPMOVSXDQ    X3, Y4
	VPADDQ       Y7, Y4, Y4
	VPSLLQ       $52, Y4, Y4          // 2^k
	VMULPD       Y4, Y2, Y2           // e
	VADDPD       Y2, Y9, Y3           // 1 + e
	VBLENDVPD    Y1, Y9, Y2, Y4       // z ≥ 0 ? 1 : e
	VDIVPD       Y3, Y4, Y4
	VANDNPD      Y4, Y0, Y4           // +0 where e underflows
	VMOVUPD      Y4, (DI)(AX*8)
	ADDQ         $4, AX
	JMP          sig4

sigdone:
	MOVQ       AX, ret+48(FP)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
