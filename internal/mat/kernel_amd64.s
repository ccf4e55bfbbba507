#include "textflag.h"

// The vector bodies repeat the portable loops' arithmetic lane by lane: a
// separate multiply and add in the operand order the Go compiler emits for
// them (never a fused multiply-add), so every result, NaN payloads
// included, keeps the portable body's bits. Each ends with VZEROUPPER so
// the SSE code around it pays no AVX transition penalty.

// func dotPanelSIMD(out *[16]float64, blk, x []float64)
TEXT ·dotPanelSIMD(SB), NOSPLIT, $0-56
	MOVQ   out+0(FP), DI
	MOVQ   blk_base+8(FP), SI
	MOVQ   x_base+32(FP), DX
	MOVQ   x_len+40(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ  CX, CX
	JZ     store

column:
	// Lanes 0-15 of column i times x[i] (weight first, as in Dot), added
	// to the running sums (sum first).
	VBROADCASTSD (DX), Y4
	VMOVUPD      0(SI), Y5
	VMOVUPD      32(SI), Y6
	VMOVUPD      64(SI), Y7
	VMOVUPD      96(SI), Y8
	VMULPD       Y4, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $128, SI
	ADDQ         $8, DX
	DECQ         CX
	JNZ          column

store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func axpySIMD(a float64, x, y []float64)
TEXT ·axpySIMD(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         y_base+32(FP), DI
	MOVQ         y_len+40(FP), CX
	CMPQ         CX, $4
	JLT          axpytail

axpy4:
	// y[i] = x[i]*a + y[i]: product first in both operations.
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     axpy4

axpytail:
	TESTQ CX, CX
	JZ    axpydone

axpy1:
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    axpy1

axpydone:
	VZEROUPPER
	RET

// func addSIMD(a, b []float64)
TEXT ·addSIMD(SB), NOSPLIT, $0-48
	MOVQ a_base+0(FP), DI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	CMPQ CX, $4
	JLT  addtail

add4:
	// a[i] = a[i] + b[i]: a first.
	VMOVUPD (DI), Y1
	VADDPD  (SI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     add4

addtail:
	TESTQ CX, CX
	JZ    adddone

add1:
	VMOVSD (DI), X1
	VADDSD (SI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    add1

adddone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
