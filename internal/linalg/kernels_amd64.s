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
