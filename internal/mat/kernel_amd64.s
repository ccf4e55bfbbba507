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

// func dotPanel2SIMD(out0, out1 *[16]float64, blk, x0, x1 []float64)
//
// dotPanelSIMD for two examples at once: each column of the group is
// loaded once and multiplied by x0[i] into Y0-Y3 and by x1[i] into Y4-Y7,
// every lane in dotPanelSIMD's order, so the two examples' eight add
// chains overlap in the pipeline.
TEXT ·dotPanel2SIMD(SB), NOSPLIT, $0-88
	MOVQ   out0+0(FP), DI
	MOVQ   out1+8(FP), R8
	MOVQ   blk_base+16(FP), SI
	MOVQ   x0_base+40(FP), DX
	MOVQ   x0_len+48(FP), CX
	MOVQ   x1_base+64(FP), BX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ  CX, CX
	JZ     store2

column2:
	VBROADCASTSD (DX), Y8
	VBROADCASTSD (BX), Y9
	VMOVUPD      0(SI), Y10
	VMOVUPD      32(SI), Y11
	VMOVUPD      64(SI), Y12
	VMOVUPD      96(SI), Y13
	VMULPD       Y8, Y10, Y14
	VMULPD       Y8, Y11, Y15
	VADDPD       Y14, Y0, Y0
	VADDPD       Y15, Y1, Y1
	VMULPD       Y8, Y12, Y14
	VMULPD       Y8, Y13, Y15
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y3, Y3
	VMULPD       Y9, Y10, Y14
	VMULPD       Y9, Y11, Y15
	VADDPD       Y14, Y4, Y4
	VADDPD       Y15, Y5, Y5
	VMULPD       Y9, Y12, Y14
	VMULPD       Y9, Y13, Y15
	VADDPD       Y14, Y6, Y6
	VADDPD       Y15, Y7, Y7
	ADDQ         $128, SI
	ADDQ         $8, DX
	ADDQ         $8, BX
	DECQ         CX
	JNZ          column2

store2:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 0(R8)
	VMOVUPD Y5, 32(R8)
	VMOVUPD Y6, 64(R8)
	VMOVUPD Y7, 96(R8)
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

// gramMask<> holds four all-ones quadwords and four zero ones: the 32 bytes
// at gramMask<>+32-8r are a VMASKMOVPD mask of the first r lanes.
DATA gramMask<>+0(SB)/8, $-1
DATA gramMask<>+8(SB)/8, $-1
DATA gramMask<>+16(SB)/8, $-1
DATA gramMask<>+24(SB)/8, $-1
DATA gramMask<>+32(SB)/8, $0
DATA gramMask<>+40(SB)/8, $0
DATA gramMask<>+48(SB)/8, $0
DATA gramMask<>+56(SB)/8, $0
GLOBL gramMask<>(SB), RODATA|NOPTR, $64

// GRAMROW adds f[i]·f[0:4] to acc, where Y12 holds f[0:4] and off is 8i:
// the product f[j]·f[i], then product plus sum, as gramGo compiles them.
#define GRAMROW(off, acc) \
	VBROADCASTSD off(DX), Y14 \
	VMULPD       Y14, Y12, Y15 \
	VADDPD       acc, Y15, acc

// GRAMROW2 is GRAMROW for a row of rank 5 to 7, whose entries are in two
// chunks: Y12 holds f[0:4] and Y13 holds the last four entries f[r-4:r].
#define GRAMROW2(off, acc0, acc1) \
	VBROADCASTSD off(DX), Y14 \
	VMULPD       Y14, Y12, Y15 \
	VADDPD       acc0, Y15, acc0 \
	VMULPD       Y14, Y13, Y15 \
	VADDPD       acc1, Y15, acc1

// func gramSIMD(g, b []float64, features [][]float64, targets []float64, r int)
//
// Row i of the lower triangle lives in YMM accumulators for the whole pass
// over the feature rows: Y0-Y3 hold rows 0-3 (columns 0-3), and rows 4-6
// hold two each, (Y4,Y5), (Y6,Y7), (Y8,Y9), for columns 0-3 and the last
// four columns r-4..r-1. Where the two chunks overlap they compute the
// same entries with the same operations, so their stores agree. Y10 (and
// Y11 for the last four) accumulate Aᵀb. A rank below 4 loads and stores
// through a mask of r lanes, so no access leaves a feature row or a row of
// g; the lanes above the diagonal receive products CholeskyInto never reads.
TEXT ·gramSIMD(SB), NOSPLIT, $0-104
	MOVQ   g_base+0(FP), DI
	MOVQ   b_base+24(FP), BX
	MOVQ   features_base+48(FP), SI
	MOVQ   features_len+56(FP), CX
	MOVQ   targets_base+72(FP), R8
	MOVQ   targets_len+80(FP), R9
	MOVQ   r+96(FP), AX
	LEAQ   0(AX*8), R11        // r*8: the row stride of g
	LEAQ   -32(R11), R10       // (r-4)*8: the offset of the last four entries
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	CMPQ   AX, $4
	JGT    gramwide

	// Rank 1 to 4: Y13 is the mask of the first r lanes.
	LEAQ    gramMask<>+32(SB), DX
	SUBQ    R11, DX
	VMOVUPD (DX), Y13
	TESTQ   CX, CX
	JZ      narrowstore

narrowloop:
	MOVQ       (SI), DX
	VMASKMOVPD (DX), Y13, Y12
	GRAMROW(0, Y0)
	CMPQ       AX, $2
	JLT        narrowt
	GRAMROW(8, Y1)
	CMPQ       AX, $3
	JLT        narrowt
	GRAMROW(16, Y2)
	CMPQ       AX, $4
	JLT        narrowt
	GRAMROW(24, Y3)

narrowt:
	// Aᵀb: f[0:4]·t, then product plus sum, as gramGo compiles them.
	TESTQ        R9, R9
	JZ           narrownext
	VBROADCASTSD (R8), Y14
	VMULPD       Y14, Y12, Y15
	VADDPD       Y10, Y15, Y10
	ADDQ         $8, R8

narrownext:
	ADDQ $24, SI
	DECQ CX
	JNZ  narrowloop

narrowstore:
	VMASKMOVPD Y0, Y13, (DI)
	CMPQ       AX, $2
	JLT        narrowb
	ADDQ       R11, DI
	VMASKMOVPD Y1, Y13, (DI)
	CMPQ       AX, $3
	JLT        narrowb
	ADDQ       R11, DI
	VMASKMOVPD Y2, Y13, (DI)
	CMPQ       AX, $4
	JLT        narrowb
	ADDQ       R11, DI
	VMASKMOVPD Y3, Y13, (DI)

narrowb:
	TESTQ      R9, R9
	JZ         gramdone
	VMASKMOVPD Y10, Y13, (BX)
	JMP        gramdone

gramwide:
	// Rank 5 to 7: f[0:4] in Y12 and f[r-4:r] in Y13 are both inside the row.
	TESTQ CX, CX
	JZ    widestore

wideloop:
	MOVQ    (SI), DX
	VMOVUPD (DX), Y12
	VMOVUPD (DX)(R10*1), Y13
	GRAMROW(0, Y0)
	GRAMROW(8, Y1)
	GRAMROW(16, Y2)
	GRAMROW(24, Y3)
	GRAMROW2(32, Y4, Y5)
	CMPQ    AX, $6
	JLT     widet
	GRAMROW2(40, Y6, Y7)
	CMPQ    AX, $7
	JLT     widet
	GRAMROW2(48, Y8, Y9)

widet:
	TESTQ        R9, R9
	JZ           widenext
	VBROADCASTSD (R8), Y14
	VMULPD       Y14, Y12, Y15
	VADDPD       Y10, Y15, Y10
	VMULPD       Y14, Y13, Y15
	VADDPD       Y11, Y15, Y11
	ADDQ         $8, R8

widenext:
	ADDQ $24, SI
	DECQ CX
	JNZ  wideloop

widestore:
	VMOVUPD Y0, (DI)
	ADDQ    R11, DI
	VMOVUPD Y1, (DI)
	ADDQ    R11, DI
	VMOVUPD Y2, (DI)
	ADDQ    R11, DI
	VMOVUPD Y3, (DI)
	ADDQ    R11, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (DI)(R10*1)
	CMPQ    AX, $6
	JLT     wideb
	ADDQ    R11, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, (DI)(R10*1)
	CMPQ    AX, $7
	JLT     wideb
	ADDQ    R11, DI
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, (DI)(R10*1)

wideb:
	TESTQ   R9, R9
	JZ      gramdone
	VMOVUPD Y10, (BX)
	VMOVUPD Y11, (BX)(R10*1)

gramdone:
	VZEROUPPER
	RET

// TRANSPOSE4 transposes the 4×4 block whose rows are a0-a3 in place: lane
// c of row i moves to lane i of row c. t0-t3 are scratch.
#define TRANSPOSE4(a0, a1, a2, a3, t0, t1, t2, t3) \
	VUNPCKLPD  a1, a0, t0 \
	VUNPCKHPD  a1, a0, t1 \
	VUNPCKLPD  a3, a2, t2 \
	VUNPCKHPD  a3, a2, t3 \
	VPERM2F128 $0x20, t2, t0, a0 \
	VPERM2F128 $0x20, t3, t1, a1 \
	VPERM2F128 $0x31, t2, t0, a2 \
	VPERM2F128 $0x31, t3, t1, a3

// func solveWideSIMD(x, targets []float64, features [][]float64, l, dst []float64, rows []int, r int)
//
// Four systems per YMM register, one 32-byte group of a row of x at a
// time. Row i of x holds b_i, then y_i, then x_i of every system, so the
// whole solve works in place. For each row i in ascending order and each
// group, the right-hand side is summed from +0 over the feature rows, then
// the forward step subtracts l_ik·y_k for k ascending and divides by l_ii;
// the back step then runs rows r-1 down to 0, subtracting l_ki·x_k for k
// ascending from i+1. The groups of one row are independent, so their
// chains overlap in the pipeline. Every product and sum repeats
// solveWideGo's: the loaded operand first in each multiply, the product
// first in the right-hand side's add.
//
// A last group of m mod 4 systems moves its targets and x through the mask
// in Y4, which covers all four lanes in a whole group, so nothing past them
// is read or written. The forward step's loads of y_k need no mask: k < r-1,
// so a lane past m still lies in row k+1 of x.
//
// Once x is solved, each group's solutions go to their factor rows: rows
// i0..i0+3 of the group are loaded (rows past r read as zero), transposed
// in registers so that each holds four entries of one system, and stored
// at entry i0 of that system's row through a mask of the entries left.
//
// Registers: DI x, R8 targets, SI features, BX m*8 (the row stride of x
// and targets), R13 r*8 (the row stride of l), R9 row i of x, R10 row i of
// l, R12 l_ii, DX the group's byte offset; AX, CX and R11 walk the inner
// loops. Y5 holds the all-lanes mask and Y6 the last group's. The locals
// hold loop bounds.
TEXT ·solveWideSIMD(SB), NOSPLIT, $32-152
	MOVQ    x_base+0(FP), DI
	MOVQ    targets_base+24(FP), R8
	MOVQ    features_base+48(FP), SI
	MOVQ    features_len+56(FP), CX
	MOVQ    l_base+72(FP), R11
	MOVQ    r+144(FP), R13
	MOVQ    rows_len+128(FP), BX
	LEAQ    (CX)(CX*2), CX
	LEAQ    (SI)(CX*8), CX
	MOVQ    CX, fend-8(SP)        // one past the last feature row's header
	LEAQ    gramMask<>(SB), AX
	VMOVUPD (AX), Y5
	MOVQ    BX, CX
	ANDQ    $3, CX
	SHLQ    $3, CX
	LEAQ    gramMask<>+32(SB), AX
	SUBQ    CX, AX
	VMOVUPD (AX), Y6              // the first m mod 4 lanes
	LEAQ    3(BX), AX
	ANDQ    $-4, AX
	SHLQ    $3, AX
	MOVQ    AX, gend-16(SP)       // one past the last group
	SHLQ    $3, BX
	MOVQ    R13, AX
	IMULQ   BX, AX
	ADDQ    DI, AX
	MOVQ    AX, xend-24(SP)       // one past the last row of x
	SHLQ    $3, R13
	MOVQ    $0, ioff-32(SP)       // 8i: row i's entry in a feature row
	MOVQ    DI, R9
	MOVQ    R11, R10
	MOVQ    R11, R12
	CMPQ    R9, AX
	JAE     backward

forwardrow:
	VBROADCASTSD (R12), Y1
	XORQ         DX, DX

forwardgroup:
	VMOVAPD Y5, Y4
	LEAQ    32(DX), AX
	CMPQ    AX, BX
	JLE     forwardrhs
	VMOVAPD Y6, Y4

forwardrhs:
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	LEAQ   (R8)(DX*1), CX
	CMPQ   AX, fend-8(SP)
	JAE    forwardsub

rhs:
	// b_i += t_q·f_q[i]: target first, then product plus sum.
	MOVQ         (AX), R11
	ADDQ         ioff-32(SP), R11
	VBROADCASTSD (R11), Y2
	VMASKMOVPD   (CX), Y4, Y3
	VMULPD       Y2, Y3, Y3
	VADDPD       Y0, Y3, Y0
	ADDQ         $24, AX
	ADDQ         BX, CX
	CMPQ         AX, fend-8(SP)
	JB           rhs

forwardsub:
	// s -= y_k·l_ik for k < i: l_ik runs along row i of l up to l_ii.
	MOVQ R10, AX
	LEAQ (DI)(DX*1), CX
	CMPQ AX, R12
	JAE  forwarddiv

forwardk:
	VBROADCASTSD (AX), Y2
	VMOVUPD      (CX), Y3
	VMULPD       Y2, Y3, Y3
	VSUBPD       Y3, Y0, Y0
	ADDQ         $8, AX
	ADDQ         BX, CX
	CMPQ         AX, R12
	JB           forwardk

forwarddiv:
	VDIVPD     Y1, Y0, Y0
	VMASKMOVPD Y0, Y4, (R9)(DX*1)
	ADDQ       $32, DX
	CMPQ       DX, gend-16(SP)
	JB         forwardgroup
	ADDQ       BX, R9
	ADDQ       R13, R10
	LEAQ       8(R12)(R13*1), R12
	ADDQ       $8, ioff-32(SP)
	CMPQ       R9, xend-24(SP)
	JB         forwardrow

backward:
	// Row r-1 first: R9 and R12 step back from one past the last row.
	SUBQ         BX, R9
	SUBQ         R13, R12
	SUBQ         $8, R12
	CMPQ         R9, DI
	JB           solvedone
	VBROADCASTSD (R12), Y1
	XORQ         DX, DX

backwardgroup:
	// s -= x_k·l_ki for k > i: l_ki runs down column i of l below l_ii.
	VMOVAPD    Y5, Y4
	LEAQ       32(DX), AX
	CMPQ       AX, BX
	JLE        backwardload
	VMOVAPD    Y6, Y4

backwardload:
	VMASKMOVPD (R9)(DX*1), Y4, Y0
	LEAQ       (R12)(R13*1), AX
	LEAQ       (R9)(BX*1), CX
	CMPQ       CX, xend-24(SP)
	JAE        backwarddiv

backwardk:
	VBROADCASTSD (AX), Y2
	VMASKMOVPD   (CX)(DX*1), Y4, Y3
	VMULPD       Y2, Y3, Y3
	VSUBPD       Y3, Y0, Y0
	ADDQ         R13, AX
	ADDQ         BX, CX
	CMPQ         CX, xend-24(SP)
	JB           backwardk

backwarddiv:
	VDIVPD     Y1, Y0, Y0
	VMASKMOVPD Y0, Y4, (R9)(DX*1)
	ADDQ       $32, DX
	CMPQ       DX, gend-16(SP)
	JB         backwardgroup
	JMP        backward

solvedone:
	// Store: SI dst, R8 the group's rows, R12 the systems from the group
	// on, R9 8·i0, R10 row i0 of x at the group; AX and CX are scratch.
	MOVQ dst_base+96(FP), SI
	MOVQ rows_base+120(FP), R8
	MOVQ rows_len+128(FP), R12
	XORQ DX, DX

storegroup:
	VMOVAPD Y5, Y4
	LEAQ    32(DX), AX
	CMPQ    AX, BX
	JLE     storerows
	VMOVAPD Y6, Y4

storerows:
	XORQ R9, R9
	LEAQ (DI)(DX*1), R10

storeblock:
	// Rows i0..i0+3 of x, as many as lie below r.
	VMASKMOVPD (R10), Y4, Y0
	VXORPD     Y1, Y1, Y1
	VXORPD     Y2, Y2, Y2
	VXORPD     Y3, Y3, Y3
	MOVQ       R13, AX
	SUBQ       R9, AX             // 8·(r − i0)
	CMPQ       AX, $8
	JLE        storetranspose
	VMASKMOVPD (R10)(BX*1), Y4, Y1
	CMPQ       AX, $16
	JLE        storetranspose
	VMASKMOVPD (R10)(BX*2), Y4, Y2
	CMPQ       AX, $24
	JLE        storetranspose
	LEAQ       (R10)(BX*2), CX
	VMASKMOVPD (CX)(BX*1), Y4, Y3

storetranspose:
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y7, Y8, Y9, Y10)
	VMOVAPD Y5, Y11
	CMPQ    AX, $32
	JAE     storelanes
	LEAQ    gramMask<>+32(SB), CX
	SUBQ    AX, CX
	VMOVUPD (CX), Y11             // the first r − i0 entries

storelanes:
	MOVQ       (R8), CX
	IMULQ      R13, CX
	ADDQ       SI, CX
	VMASKMOVPD Y0, Y11, (CX)(R9*1)
	CMPQ       R12, $2
	JLT        storenext
	MOVQ       8(R8), CX
	IMULQ      R13, CX
	ADDQ       SI, CX
	VMASKMOVPD Y1, Y11, (CX)(R9*1)
	CMPQ       R12, $3
	JLT        storenext
	MOVQ       16(R8), CX
	IMULQ      R13, CX
	ADDQ       SI, CX
	VMASKMOVPD Y2, Y11, (CX)(R9*1)
	CMPQ       R12, $4
	JLT        storenext
	MOVQ       24(R8), CX
	IMULQ      R13, CX
	ADDQ       SI, CX
	VMASKMOVPD Y3, Y11, (CX)(R9*1)

storenext:
	ADDQ $32, R9
	LEAQ (R10)(BX*4), R10
	CMPQ R9, R13
	JB   storeblock
	ADDQ $32, DX
	ADDQ $32, R8
	SUBQ $4, R12
	CMPQ DX, gend-16(SP)
	JB   storegroup
	VZEROUPPER
	RET

// func solveUniqueSIMD(dst, w []float64, rows []int, r int) (bad uint64)
//
// One system per lane, m = len(rows) of them; lanes past m repeat system
// 0, and their results are dropped. The Gram matrices and right-hand sides
// are gathered lane by lane into w's working storage, entry (i, j) of the
// factor at L + 32(i·r + j) and entry i of the solution at X + 32i. The
// factor then runs CholeskyInto's loops on every lane at once: for each
// column j, d = a_jj − l_jk·l_jk for k ascending, the lane's positive-
// definite test (d > 0, false for a NaN), l_jj = √d, and for each row
// i > j, l_ij = (a_ij − l_ik·l_jk for k ascending) / l_jj. The mask of the
// lanes that failed the test is ORed up over the columns. When it holds
// one of the m systems, the kernel returns it and stores nothing;
// otherwise forward and back substitution run CholeskySolveInto's loops in
// place in X, and each block of four entries is transposed in registers
// and stored into the systems' rows as in solveWideSIMD. Every step is a
// separate multiply and subtract with the running value first, and a true
// division.
//
// Registers: DI L, R12 X, R13 32r (the row stride of L); SI, R8-R11, BX,
// CX, AX and DX walk the gathers, the loops and the stores. Y15 gathers
// the failed lanes and Y14 holds zero.
TEXT ·solveUniqueSIMD(SB), NOSPLIT, $0-88
	MOVQ  w_base+24(FP), SI
	MOVQ  rows_len+56(FP), CX
	MOVQ  r+72(FP), R13
	MOVQ  R13, AX
	IMULQ R13, AX
	SHLQ  $3, AX                  // 8r²: one Gram matrix

	// Lane c gathers from system c's Gram matrix, or system 0's past m.
	MOVQ    SI, R8
	LEAQ    (SI)(AX*1), R9
	CMPQ    CX, $2
	CMOVQLT SI, R9
	LEAQ    (SI)(AX*2), R10
	CMPQ    CX, $3
	CMOVQLT SI, R10
	LEAQ    (AX)(AX*2), R11
	ADDQ    SI, R11
	CMPQ    CX, $4
	CMOVQLT SI, R11
	LEAQ    (SI)(AX*4), BX        // the right-hand sides
	MOVQ    R13, DX
	SHLQ    $5, DX
	LEAQ    (BX)(DX*1), DI        // L
	LEAQ    (DI)(AX*4), R12       // X
	XORQ    DX, DX

gathergram:
	VMOVSD      (R8)(DX*1), X0
	VMOVHPD     (R9)(DX*1), X0, X0
	VMOVSD      (R10)(DX*1), X1
	VMOVHPD     (R11)(DX*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VMOVUPD     Y0, (DI)(DX*4)
	ADDQ        $8, DX
	CMPQ        DX, AX
	JB          gathergram

	MOVQ    R13, AX
	SHLQ    $3, AX                // 8r: one right-hand side
	MOVQ    BX, R8
	LEAQ    (BX)(AX*1), R9
	CMPQ    CX, $2
	CMOVQLT BX, R9
	LEAQ    (BX)(AX*2), R10
	CMPQ    CX, $3
	CMOVQLT BX, R10
	LEAQ    (AX)(AX*2), R11
	ADDQ    BX, R11
	CMPQ    CX, $4
	CMOVQLT BX, R11
	XORQ    DX, DX

gatherrhs:
	VMOVSD      (R8)(DX*1), X0
	VMOVHPD     (R9)(DX*1), X0, X0
	VMOVSD      (R10)(DX*1), X1
	VMOVHPD     (R11)(DX*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VMOVUPD     Y0, (R12)(DX*4)
	ADDQ        $8, DX
	CMPQ        DX, AX
	JB          gatherrhs

	// Factor: R8 row j of L, R9 32j, R10 row i of L, AX 32k; L ends at X.
	SHLQ   $5, R13
	VXORPD Y15, Y15, Y15
	VXORPD Y14, Y14, Y14
	MOVQ   DI, R8
	XORQ   R9, R9

cholcol:
	VMOVUPD (R8)(R9*1), Y0
	XORQ    AX, AX
	CMPQ    AX, R9
	JAE     cholpivot

choldiag:
	VMOVUPD (R8)(AX*1), Y1
	VMULPD  Y1, Y1, Y1
	VSUBPD  Y1, Y0, Y0
	ADDQ    $32, AX
	CMPQ    AX, R9
	JB      choldiag

cholpivot:
	VCMPPD  $0x1a, Y14, Y0, Y2    // not d > 0: NGT_UQ, true for a NaN
	VORPD   Y2, Y15, Y15
	VSQRTPD Y0, Y1
	VMOVUPD Y1, (R8)(R9*1)
	LEAQ    (R8)(R13*1), R10
	CMPQ    R10, R12
	JAE     cholnext

cholrow:
	VMOVUPD (R10)(R9*1), Y0
	XORQ    AX, AX
	CMPQ    AX, R9
	JAE     choldiv

cholk:
	VMOVUPD (R10)(AX*1), Y2
	VMULPD  (R8)(AX*1), Y2, Y2
	VSUBPD  Y2, Y0, Y0
	ADDQ    $32, AX
	CMPQ    AX, R9
	JB      cholk

choldiv:
	VDIVPD  Y1, Y0, Y0
	VMOVUPD Y0, (R10)(R9*1)
	ADDQ    R13, R10
	CMPQ    R10, R12
	JB      cholrow

cholnext:
	ADDQ R13, R8
	ADDQ $32, R9
	CMPQ R8, R12
	JB   cholcol

	// The failed lanes among the m systems.
	VMOVMSKPD Y15, AX
	MOVQ      $1, DX
	SHLQ      CX, DX
	DECQ      DX
	ANDQ      DX, AX
	JZ        forwardsolve
	MOVQ      AX, bad+80(FP)
	VZEROUPPER
	RET

forwardsolve:
	// y_i = (b_i − l_ik·y_k for k < i) / l_ii: R8 row i of L, R9 32i.
	MOVQ DI, R8
	XORQ R9, R9

forwardi:
	VMOVUPD (R12)(R9*1), Y0
	XORQ    AX, AX
	CMPQ    AX, R9
	JAE     forwardidiv

forwardik:
	VMOVUPD (R8)(AX*1), Y2
	VMULPD  (R12)(AX*1), Y2, Y2
	VSUBPD  Y2, Y0, Y0
	ADDQ    $32, AX
	CMPQ    AX, R9
	JB      forwardik

forwardidiv:
	VDIVPD  (R8)(R9*1), Y0, Y0
	VMOVUPD Y0, (R12)(R9*1)
	ADDQ    R13, R8
	ADDQ    $32, R9
	CMPQ    R8, R12
	JB      forwardi

	// x_i = (y_i − l_ki·x_k for k > i) / l_ii, i from r−1 down: R8 row i
	// of L, R9 32i, AX row k of L, DX 32k.
	MOVQ R12, R8
	SUBQ R13, R8
	LEAQ -32(R9), R9

backi:
	VMOVUPD (R12)(R9*1), Y0
	LEAQ    (R8)(R13*1), AX
	LEAQ    32(R9), DX
	CMPQ    AX, R12
	JAE     backidiv

backik:
	VMOVUPD (AX)(R9*1), Y2
	VMULPD  (R12)(DX*1), Y2, Y2
	VSUBPD  Y2, Y0, Y0
	ADDQ    R13, AX
	ADDQ    $32, DX
	CMPQ    AX, R12
	JB      backik

backidiv:
	VDIVPD  (R8)(R9*1), Y0, Y0
	VMOVUPD Y0, (R12)(R9*1)
	SUBQ    R13, R8
	SUBQ    $32, R9
	JGE     backi

	// Store: system c's row at dst + 8r·rows[c] in R8, R10, R11, BX for
	// c < m; R9 8·i0; CX still m.
	MOVQ  dst_base+0(FP), SI
	MOVQ  rows_base+48(FP), DX
	MOVQ  r+72(FP), R13
	SHLQ  $3, R13
	MOVQ  (DX), R8
	IMULQ R13, R8
	ADDQ  SI, R8
	CMPQ  CX, $2
	JLT   uniquerows
	MOVQ  8(DX), R10
	IMULQ R13, R10
	ADDQ  SI, R10
	CMPQ  CX, $3
	JLT   uniquerows
	MOVQ  16(DX), R11
	IMULQ R13, R11
	ADDQ  SI, R11
	CMPQ  CX, $4
	JLT   uniquerows
	MOVQ  24(DX), BX
	IMULQ R13, BX
	ADDQ  SI, BX

uniquerows:
	VMOVUPD gramMask<>(SB), Y13
	XORQ    R9, R9

uniqueblock:
	VMOVUPD (R12), Y0
	VMOVUPD 32(R12), Y1
	VMOVUPD 64(R12), Y2
	VMOVUPD 96(R12), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VMOVAPD Y13, Y11
	MOVQ    R13, AX
	SUBQ    R9, AX                // 8·(r − i0)
	CMPQ    AX, $32
	JAE     uniquelanes
	LEAQ    gramMask<>+32(SB), DX
	SUBQ    AX, DX
	VMOVUPD (DX), Y11             // the first r − i0 entries

uniquelanes:
	VMASKMOVPD Y0, Y11, (R8)(R9*1)
	CMPQ       CX, $2
	JLT        uniquenext
	VMASKMOVPD Y1, Y11, (R10)(R9*1)
	CMPQ       CX, $3
	JLT        uniquenext
	VMASKMOVPD Y2, Y11, (R11)(R9*1)
	CMPQ       CX, $4
	JLT        uniquenext
	VMASKMOVPD Y3, Y11, (BX)(R9*1)

uniquenext:
	ADDQ $128, R12
	ADDQ $32, R9
	CMPQ R9, R13
	JB   uniqueblock
	MOVQ $0, bad+80(FP)
	VZEROUPPER
	RET

// RESIDUAL finishes one group of four systems whose predictions p are in
// acc: t − p with the target first, stored at dst's group.
#define RESIDUAL(off, acc) \
	VMOVUPD off(R8)(DX*1), Y5 \
	VSUBPD  acc, Y5, acc \
	VMOVUPD acc, off(DI)(DX*1)

// func residualsWideSIMD(dst, targets, x []float64, features [][]float64, r, m int)
//
// For each feature row f_q in order and each group of four systems, the
// prediction p is summed from +0 over k ascending, f_q[k]·x_k with the
// feature first in the multiply and the sum first in the add, as Dot
// compiles them; then the group's residual is t − p. Four groups run at
// once, so their add chains overlap, then single groups, then a last group
// of m mod 4 systems that moves x, the targets and dst through the mask in
// Y15, so nothing past them is read or written.
//
// Registers: DI dst's row q, R8 the targets' row q, R9 x, SI the feature
// row's header, CX the feature rows left, R13 r, BX m*8 (the row stride of
// x, the targets and dst), DX the group's byte offset; R10 walks f_q, R11
// the rows of x and R12 counts k.
TEXT ·residualsWideSIMD(SB), NOSPLIT, $0-112
	MOVQ    dst_base+0(FP), DI
	MOVQ    targets_base+24(FP), R8
	MOVQ    x_base+48(FP), R9
	MOVQ    features_base+72(FP), SI
	MOVQ    features_len+80(FP), CX
	MOVQ    r+96(FP), R13
	MOVQ    m+104(FP), BX
	MOVQ    BX, AX
	ANDQ    $3, AX
	SHLQ    $3, AX
	LEAQ    gramMask<>+32(SB), R10
	SUBQ    AX, R10
	VMOVUPD (R10), Y15            // the first m mod 4 lanes
	SHLQ    $3, BX

resentry:
	XORQ DX, DX

resquad:
	LEAQ   128(DX), AX
	CMPQ   AX, BX
	JA     resone
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   (SI), R10
	LEAQ   (R9)(DX*1), R11
	MOVQ   R13, R12

resquadk:
	VBROADCASTSD (R10), Y4
	VMULPD       0(R11), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R11), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R11), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R11), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, R10
	ADDQ         BX, R11
	DECQ         R12
	JNZ          resquadk
	RESIDUAL(0, Y0)
	RESIDUAL(32, Y1)
	RESIDUAL(64, Y2)
	RESIDUAL(96, Y3)
	MOVQ         AX, DX
	JMP          resquad

resone:
	LEAQ   32(DX), AX
	CMPQ   AX, BX
	JA     restail
	VXORPD Y0, Y0, Y0
	MOVQ   (SI), R10
	LEAQ   (R9)(DX*1), R11
	MOVQ   R13, R12

resonek:
	VBROADCASTSD (R10), Y4
	VMULPD       (R11), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, R10
	ADDQ         BX, R11
	DECQ         R12
	JNZ          resonek
	RESIDUAL(0, Y0)
	MOVQ         AX, DX
	JMP          resone

restail:
	CMPQ   DX, BX
	JAE    resnext
	VXORPD Y0, Y0, Y0
	MOVQ   (SI), R10
	LEAQ   (R9)(DX*1), R11
	MOVQ   R13, R12

restailk:
	VBROADCASTSD (R10), Y4
	VMASKMOVPD   (R11), Y15, Y6
	VMULPD       Y6, Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, R10
	ADDQ         BX, R11
	DECQ         R12
	JNZ          restailk
	VMASKMOVPD   (R8)(DX*1), Y15, Y5
	VSUBPD       Y0, Y5, Y0
	VMASKMOVPD   Y0, Y15, (DI)(DX*1)

resnext:
	ADDQ BX, DI
	ADDQ BX, R8
	ADDQ $24, SI
	DECQ CX
	JNZ  resentry
	VZEROUPPER
	RET

// QUAD defines sym as four copies of the quadword v: a YMM memory operand
// that gives v in every lane.
#define QUAD(sym, v) \
	DATA  sym+0(SB)/8, v \
	DATA  sym+8(SB)/8, v \
	DATA  sym+16(SB)/8, v \
	DATA  sym+24(SB)/8, v \
	GLOBL sym(SB), RODATA|NOPTR, $32

// archExp's constants, with its literals: log₂e, ln 2 split into an upper
// and a lower part, the 1/16 argument reduction, and the Taylor
// coefficients 1/k! for k = 8 down to 2 (1/1! is one<>).
QUAD(expLog2e<>, $1.4426950408889634073599246810018920)
QUAD(expLn2U<>, $0.69314718055966295651160180568695068359375)
QUAD(expLn2L<>, $0.28235290563031577122588448175013436025525412068e-12)
QUAD(expSixteenth<>, $0.0625)
QUAD(expT8<>, $2.4801587301587301587e-5)
QUAD(expT7<>, $1.9841269841269841270e-4)
QUAD(expT6<>, $1.3888888888888888889e-3)
QUAD(expT5<>, $8.3333333333333333333e-3)
QUAD(expT4<>, $4.1666666666666666667e-2)
QUAD(expT3<>, $1.6666666666666666667e-1)
QUAD(expT2<>, $0.5)
QUAD(expBias<>, $0x3ff)

// expRange in exp.go: the largest |x| a lane evaluates.
QUAD(expRange<>, $708.0)
QUAD(one<>, $1.0)
QUAD(two<>, $2.0)
QUAD(absMask<>, $0x7fffffffffffffff)
QUAD(signMask<>, $-0x8000000000000000)

// math.tanh's constants: its cut-offs 0.5·MAXLOG and 0.625 and the
// coefficients of its rational form.
QUAD(tanhHuge<>, $44.014845965556527147994)
QUAD(tanhCut<>, $0.625)
QUAD(tanhP0<>, $-9.64399179425052238628e-1)
QUAD(tanhP1<>, $-9.92877231001918586564e1)
QUAD(tanhP2<>, $-1.61468768441708447952e3)
QUAD(tanhQ0<>, $1.12811678491632931402e2)
QUAD(tanhQ1<>, $2.23548839060100448583e3)
QUAD(tanhQ2<>, $4.84406305325125486048e3)

// EXP replaces each lane x of d by archExp's FMA path for x, in its
// order: k = x·log₂e rounded to an integer under MXCSR, as CVTSD2SL rounds
// it (VROUNDPD $4 for the float the next steps use, VCVTPD2DQ for the
// int32 the exponent uses; the truncating forms would be wrong);
// r = x − k·ln2U − k·ln2L, both fused; r/16 through the Taylor polynomial
// by fused Horner steps; four squarings (r+2)·r, the last fused with +1;
// then the product with 2^k built in the integer lanes. It is math.Exp(x)
// wherever |x| ≤ expRange. k and p are scratch, xk is k's low half.
#define EXP(d, k, xk, p) \
	VMULPD       expLog2e<>(SB), d, k \
	VROUNDPD     $4, k, p \
	VCVTPD2DQY   k, xk \
	VFNMADD231PD expLn2U<>(SB), p, d \
	VFNMADD231PD expLn2L<>(SB), p, d \
	VMULPD       expSixteenth<>(SB), d, d \
	VMOVUPD      expT8<>(SB), p \
	VFMADD213PD  expT7<>(SB), d, p \
	VFMADD213PD  expT6<>(SB), d, p \
	VFMADD213PD  expT5<>(SB), d, p \
	VFMADD213PD  expT4<>(SB), d, p \
	VFMADD213PD  expT3<>(SB), d, p \
	VFMADD213PD  expT2<>(SB), d, p \
	VFMADD213PD  one<>(SB), d, p \
	VMULPD       p, d, d \
	VADDPD       two<>(SB), d, p \
	VMULPD       p, d, d \
	VADDPD       two<>(SB), d, p \
	VMULPD       p, d, d \
	VADDPD       two<>(SB), d, p \
	VMULPD       p, d, d \
	VADDPD       two<>(SB), d, p \
	VFMADD213PD  one<>(SB), p, d \
	VPMOVSXDQ    xk, k \
	VPADDQ       expBias<>(SB), k, k \
	VPSLLQ       $52, k, k \
	VMULPD       k, d, d

// EXPSUB computes Y0 = exp(Y0 − sub) with sub in Y15, and in Y1 the mask
// of the lanes whose |Y0 − sub| ≤ expRange: a NaN compares false.
#define EXPSUB \
	VSUBPD Y15, Y0, Y0 \
	VANDPD absMask<>(SB), Y0, Y1 \
	VCMPPD $0x12, expRange<>(SB), Y1, Y1 \
	EXP(Y0, Y2, X2, Y3)

// LEFT ors into R8 the lanes of the group in BX that the mask in AX does
// not hold, shifted up to the group's first lane in CX.
#define LEFT \
	XORQ BX, AX \
	SHLQ CX, AX \
	ORQ  AX, R8

// func expSubSIMD(dst, x []float64, sub float64) (left uint64)
//
// Registers: DI dst, SI x, DX the lanes left to do, CX the group's first
// lane, BX the four lanes of a group, R8 the lanes left to package math,
// Y15 sub.
TEXT ·expSubSIMD(SB), NOSPLIT, $0-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), DX
	VBROADCASTSD sub+48(FP), Y15
	XORQ         R8, R8
	XORQ         CX, CX
	MOVQ         $15, BX
	CMPQ         DX, $4
	JLT          exptail

expgroup:
	VMOVUPD   (SI), Y0
	EXPSUB
	VMOVMSKPD Y1, AX
	CMPQ      AX, BX
	JNE       expsome
	VMOVUPD   Y0, (DI)
	JMP       expnext

expsome:
	VMASKMOVPD Y0, Y1, (DI)
	LEFT

expnext:
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $4, CX
	SUBQ $4, DX
	CMPQ DX, $4
	JGE  expgroup

exptail:
	// The last len(x) mod 4 lanes move one at a time, the rest of the
	// register reading 0: no access leaves x or dst, and the code that
	// reads dst next has each lane forwarded from its own store.
	TESTQ       DX, DX
	JZ          expdone
	VMOVSD      (SI), X0
	CMPQ        DX, $2
	JLT         exptailin
	VMOVHPD     8(SI), X0, X0
	CMPQ        DX, $3
	JLT         exptailin
	VMOVSD      16(SI), X2
	VINSERTF128 $1, X2, Y0, Y0

exptailin:
	EXPSUB
	VMOVMSKPD Y1, AX
	BTQ       $0, AX
	JCC       exptail1
	VMOVSD    X0, (DI)

exptail1:
	CMPQ    DX, $2
	JLT     exptailleft
	BTQ     $1, AX
	JCC     exptail2
	VMOVHPD X0, 8(DI)

exptail2:
	CMPQ         DX, $3
	JLT          exptailleft
	BTQ          $2, AX
	JCC          exptailleft
	VEXTRACTF128 $1, Y0, X0
	VMOVSD       X0, 16(DI)

exptailleft:
	XORQ  BX, BX
	BTSQ  DX, BX
	DECQ  BX
	ANDQ  BX, AX
	LEFT

expdone:
	MOVQ R8, left+56(FP)
	VZEROUPPER
	RET

// TANH computes Y4 = math.tanh(Y0) in every lane, and in Y1 the mask of
// the lanes that are not NaN. Each branch of tanh runs in every lane: ±1
// for |x| > 0.5·MAXLOG; 1 − 2/(exp(2|x|)+1) with x's sign for |x| ≥ 0.625,
// where 2|x| ≤ MAXLOG keeps exp's argument in range; and otherwise
// x + ((x·s)·P)/Q with s = x·x, P = (P0·s+P1)·s+P2 and
// Q = ((s+Q0)·s+Q1)·s+Q2 in Go's order and never fused, or x itself where
// x = ±0. Blends keep the branch tanh takes; the others' values, whatever
// they are, are dropped.
#define TANH \
	VCMPPD    $7, Y0, Y0, Y1 \
	VANDPD    absMask<>(SB), Y0, Y2 \
	VADDPD    Y2, Y2, Y3 \
	EXP(Y3, Y4, X4, Y5) \
	VADDPD    one<>(SB), Y3, Y3 \
	VMOVUPD   two<>(SB), Y4 \
	VDIVPD    Y3, Y4, Y4 \
	VMOVUPD   one<>(SB), Y3 \
	VSUBPD    Y4, Y3, Y3 \
	VANDPD    signMask<>(SB), Y0, Y6 \
	VORPD     Y6, Y3, Y3 \
	VORPD     one<>(SB), Y6, Y6 \
	VCMPPD    $0x1e, tanhHuge<>(SB), Y2, Y8 \
	VBLENDVPD Y8, Y6, Y3, Y3 \
	VMULPD    Y0, Y0, Y4 \
	VMULPD    tanhP0<>(SB), Y4, Y5 \
	VADDPD    tanhP1<>(SB), Y5, Y5 \
	VMULPD    Y4, Y5, Y5 \
	VADDPD    tanhP2<>(SB), Y5, Y5 \
	VADDPD    tanhQ0<>(SB), Y4, Y9 \
	VMULPD    Y4, Y9, Y9 \
	VADDPD    tanhQ1<>(SB), Y9, Y9 \
	VMULPD    Y4, Y9, Y9 \
	VADDPD    tanhQ2<>(SB), Y9, Y9 \
	VMULPD    Y4, Y0, Y4 \
	VMULPD    Y5, Y4, Y4 \
	VDIVPD    Y9, Y4, Y4 \
	VADDPD    Y4, Y0, Y4 \
	VXORPD    Y8, Y8, Y8 \
	VCMPPD    $0, Y8, Y0, Y8 \
	VBLENDVPD Y8, Y0, Y4, Y4 \
	VCMPPD    $0x1d, tanhCut<>(SB), Y2, Y8 \
	VBLENDVPD Y8, Y3, Y4, Y4

// func tanhBiasSIMD(h, b []float64) (left uint64)
//
// The sum h + b has h first, as AddVec's. Registers: DI h, SI b, DX the
// lanes left to do, CX the group's first lane, BX the four lanes of a
// group, R8 the lanes left to package math.
TEXT ·tanhBiasSIMD(SB), NOSPLIT, $0-56
	MOVQ h_base+0(FP), DI
	MOVQ h_len+8(FP), DX
	MOVQ b_base+24(FP), SI
	XORQ R8, R8
	XORQ CX, CX
	MOVQ $15, BX
	CMPQ DX, $4
	JLT  tanhtail

tanhgroup:
	VMOVUPD   (DI), Y0
	VADDPD    (SI), Y0, Y0
	TANH
	VMOVMSKPD Y1, AX
	CMPQ      AX, BX
	JNE       tanhsome
	VMOVUPD   Y4, (DI)
	JMP       tanhnext

tanhsome:
	VMASKMOVPD Y4, Y1, (DI)
	LEFT

tanhnext:
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $4, CX
	SUBQ $4, DX
	CMPQ DX, $4
	JGE  tanhgroup

tanhtail:
	// The last len(h) mod 4 lanes move one at a time, as in expSubSIMD.
	TESTQ       DX, DX
	JZ          tanhdone
	VMOVSD      (DI), X0
	VMOVSD      (SI), X2
	CMPQ        DX, $2
	JLT         tanhtailin
	VMOVHPD     8(DI), X0, X0
	VMOVHPD     8(SI), X2, X2
	CMPQ        DX, $3
	JLT         tanhtailin
	VMOVSD      16(DI), X3
	VINSERTF128 $1, X3, Y0, Y0
	VMOVSD      16(SI), X3
	VINSERTF128 $1, X3, Y2, Y2

tanhtailin:
	VADDPD    Y2, Y0, Y0
	TANH
	VMOVMSKPD Y1, AX
	BTQ       $0, AX
	JCC       tanhtail1
	VMOVSD    X4, (DI)

tanhtail1:
	CMPQ    DX, $2
	JLT     tanhtailleft
	BTQ     $1, AX
	JCC     tanhtail2
	VMOVHPD X4, 8(DI)

tanhtail2:
	CMPQ         DX, $3
	JLT          tanhtailleft
	BTQ          $2, AX
	JCC          tanhtailleft
	VEXTRACTF128 $1, Y4, X4
	VMOVSD       X4, 16(DI)

tanhtailleft:
	XORQ BX, BX
	BTSQ DX, BX
	DECQ BX
	ANDQ BX, AX
	LEFT

tanhdone:
	MOVQ R8, left+48(FP)
	VZEROUPPER
	RET

// archLog's constants, with its literals: √2/2, ln 2 split into an upper
// and a lower part, and the coefficients L1-L7 of its polynomial; the
// mask of a float's fraction bits; and 2^52 as bits, and 2^52 + 0x3fe,
// which turn a biased exponent e into the float e − 0x3fe.
QUAD(logHSqrt2<>, $7.07106781186547524401e-01)
QUAD(logLn2Hi<>, $6.93147180369123816490e-01)
QUAD(logLn2Lo<>, $1.90821492927058770002e-10)
QUAD(logL1<>, $6.666666666666735130e-01)
QUAD(logL2<>, $3.999999999940941908e-01)
QUAD(logL3<>, $2.857142874366239149e-01)
QUAD(logL4<>, $2.222219843214978396e-01)
QUAD(logL5<>, $1.818357216161805012e-01)
QUAD(logL6<>, $1.531383769920937332e-01)
QUAD(logL7<>, $1.479819860511658591e-01)
QUAD(logFrac<>, $0x000fffffffffffff)
QUAD(logMaxFinite<>, $0x7fefffffffffffff)
QUAD(logTwo52<>, $0x4330000000000000)
QUAD(logKBias<>, $0x43300000000003fe)
QUAD(half<>, $0.5)

// LOG replaces each lane x of Y0 by archLog(x), in its order and with its
// operands, and sets Y1 to the mask of the lanes whose bits, as a signed
// integer, lie in (0, +Inf): the lanes where archLog takes none of its
// branches. Like archLog it takes f1 = the fraction with the exponent of
// 0.5 and k = the biased exponent − 0x3fe straight from the bits, with no
// normalization, so a subnormal x has k = −1022 and f1 = 0.5 + its
// fraction bits: log(5e-324) is −709.0895657128241, not −744.44. k is
// exact in both forms, archLog's CVTSL2SD and the difference of 2^52 + e
// and 2^52 + 0x3fe here. Then: k −= 1 and f1 *= 2 where
// !(√2/2 < f1), which is f1 ≤ √2/2 as f1 is never NaN; f = f1 − 1;
// s = f/(2+f); R = s²·(L1+s⁴(L3+s⁴(L5+s⁴L7))) + s⁴·(L2+s⁴(L4+s⁴L6));
// hfsq = 0.5·f·f; the result k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f).
// Nothing is fused: archLog is SSE2 code.
#define LOG \
	VPXOR      Y1, Y1, Y1 \
	VPCMPGTQ   Y1, Y0, Y1 \
	VPCMPGTQ   logMaxFinite<>(SB), Y0, Y2 \
	VPANDN     Y1, Y2, Y1 \
	VANDPD     logFrac<>(SB), Y0, Y2 \
	VORPD      half<>(SB), Y2, Y2 \
	VPSRLQ     $52, Y0, Y3 \
	VPOR       logTwo52<>(SB), Y3, Y3 \
	VSUBPD     logKBias<>(SB), Y3, Y3 \
	VCMPPD     $2, logHSqrt2<>(SB), Y2, Y4 \
	VANDPD     one<>(SB), Y4, Y5 \
	VSUBPD     Y5, Y3, Y3 \
	VADDPD     one<>(SB), Y5, Y5 \
	VMULPD     Y5, Y2, Y2 \
	VSUBPD     one<>(SB), Y2, Y2 \
	VADDPD     two<>(SB), Y2, Y6 \
	VDIVPD     Y6, Y2, Y6 \
	VMULPD     Y6, Y6, Y7 \
	VMULPD     Y7, Y7, Y8 \
	VMULPD     logL7<>(SB), Y8, Y9 \
	VADDPD     logL5<>(SB), Y9, Y9 \
	VMULPD     Y8, Y9, Y9 \
	VADDPD     logL3<>(SB), Y9, Y9 \
	VMULPD     Y8, Y9, Y9 \
	VADDPD     logL1<>(SB), Y9, Y9 \
	VMULPD     Y9, Y7, Y7 \
	VMULPD     logL6<>(SB), Y8, Y9 \
	VADDPD     logL4<>(SB), Y9, Y9 \
	VMULPD     Y8, Y9, Y9 \
	VADDPD     logL2<>(SB), Y9, Y9 \
	VMULPD     Y9, Y8, Y8 \
	VADDPD     Y8, Y7, Y7 \
	VMULPD     half<>(SB), Y2, Y9 \
	VMULPD     Y2, Y9, Y9 \
	VADDPD     Y9, Y7, Y7 \
	VMULPD     Y7, Y6, Y6 \
	VMULPD     logLn2Lo<>(SB), Y3, Y7 \
	VADDPD     Y7, Y6, Y6 \
	VSUBPD     Y6, Y9, Y9 \
	VSUBPD     Y2, Y9, Y9 \
	VMULPD     logLn2Hi<>(SB), Y3, Y3 \
	VSUBPD     Y9, Y3, Y0

// COLUMN loads entry j of four consecutive rows into the lanes of d,
// whose low half is xd: AX points at row 0's entry j, R9 is the row stride
// in bytes and R10 three strides. xt is scratch.
#define COLUMN(d, xd, xt) \
	VMOVSD      (AX), xd \
	VMOVHPD     (AX)(R9*1), xd, xd \
	VMOVSD      (AX)(R9*2), xt \
	VMOVHPD     (AX)(R10*1), xt, xt \
	VINSERTF128 $1, xt, d, d

// func rowMaxShiftSIMD(z []float64, classes int)
//
// Four rows per YMM register, a lane per row: the max is the running
// VMAXPD of the columns in index order with the column first, which is
// (x > mx) ? x : mx lane by lane, LabelLogProbs's scan, NaN lanes and
// signed zeros included; then each entry becomes x − mx, stored back
// lane by lane. len(z) is a multiple of 4·classes and classes ≥ 1.
// Registers: SI row 0 of the group, R12 the end of z, R11 classes, DX the
// columns left, AX the column, R9 and R10 the row strides of COLUMN.
TEXT ·rowMaxShiftSIMD(SB), NOSPLIT, $0-32
	MOVQ z_base+0(FP), SI
	MOVQ z_len+8(FP), CX
	MOVQ classes+24(FP), R11
	LEAQ (SI)(CX*8), R12
	MOVQ R11, R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R10
	CMPQ SI, R12
	JAE  maxdone

maxgroup:
	MOVQ SI, AX
	COLUMN(Y0, X0, X2)
	MOVQ R11, DX
	DECQ DX
	JZ   maxshift

maxcol:
	ADDQ    $8, AX
	COLUMN(Y1, X1, X2)
	VMAXPD  Y0, Y1, Y0
	DECQ    DX
	JNZ     maxcol

maxshift:
	MOVQ SI, AX
	MOVQ R11, DX

shiftcol:
	COLUMN(Y1, X1, X2)
	VSUBPD       Y0, Y1, Y1
	VMOVSD       X1, (AX)
	VMOVHPD      X1, (AX)(R9*1)
	VEXTRACTF128 $1, Y1, X2
	VMOVSD       X2, (AX)(R9*2)
	VMOVHPD      X2, (AX)(R10*1)
	ADDQ         $8, AX
	DECQ         DX
	JNZ          shiftcol
	LEAQ         (SI)(R9*4), SI
	CMPQ         SI, R12
	JB           maxgroup

maxdone:
	VZEROUPPER
	RET

// labelProbsSIMD's constants: the integer 1 that steps the column index,
// the floor of math.Max(p, 1e-15), and the NaN amd64's math.Max returns.
QUAD(oneQ<>, $1)
QUAD(probFloor<>, $1e-15)
QUAD(maxNaN<>, $0x7ff8000000000001)

// func labelProbsSIMD(dst, e []float64, classes int, labels []int)
//
// Four rows per YMM register, a lane per row, as in rowMaxShiftSIMD: the
// sum of each row's exponentials from +0 in index order (the sum first in
// each add), the label's exponential picked where the column index equals
// the lane's label, then e_y·(1/sum) and math.Max(p, 1e-15) as amd64's
// archMax computes it against a positive finite floor: p where p > 1e-15
// (+Inf included), 1e-15 otherwise, and archMax's NaN wherever p is NaN.
// len(dst) is a multiple of 4, e holds len(dst) rows of classes ≥ 1
// entries and every label lies in [0, classes).
// Registers: DI dst, CX the rows left, SI row 0 of the group, R8 the
// group's labels, R11 classes, DX the columns left, AX the column, R9 and
// R10 the row strides of COLUMN.
TEXT ·labelProbsSIMD(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ e_base+24(FP), SI
	MOVQ classes+48(FP), R11
	MOVQ labels_base+56(FP), R8
	MOVQ R11, R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R10
	TESTQ CX, CX
	JZ   probdone

probgroup:
	VMOVDQU (R8), Y2
	VXORPD  Y0, Y0, Y0
	VXORPD  Y3, Y3, Y3
	VPXOR   Y4, Y4, Y4
	MOVQ    SI, AX
	MOVQ    R11, DX

probcol:
	COLUMN(Y1, X1, X5)
	VADDPD    Y1, Y0, Y0
	VPCMPEQQ  Y4, Y2, Y5
	VBLENDVPD Y5, Y1, Y3, Y3
	VPADDQ    oneQ<>(SB), Y4, Y4
	ADDQ      $8, AX
	DECQ      DX
	JNZ       probcol

	VMOVUPD   one<>(SB), Y5
	VDIVPD    Y0, Y5, Y5
	VMULPD    Y5, Y3, Y3
	VMOVUPD   probFloor<>(SB), Y7
	VCMPPD    $0x1e, Y7, Y3, Y6
	VBLENDVPD Y6, Y3, Y7, Y7
	VCMPPD    $3, Y3, Y3, Y6
	VBLENDVPD Y6, maxNaN<>(SB), Y7, Y7
	VMOVUPD   Y7, (DI)
	ADDQ      $32, DI
	ADDQ      $32, R8
	LEAQ      (SI)(R9*4), SI
	SUBQ      $4, CX
	JNZ       probgroup

probdone:
	VZEROUPPER
	RET

// func logSIMD(dst, x []float64) (left uint64)
//
// Registers as in expSubSIMD: DI dst, SI x, DX the lanes left to do, CX
// the group's first lane, BX the four lanes of a group, R8 the lanes left
// to package math.
TEXT ·logSIMD(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), DX
	XORQ R8, R8
	XORQ CX, CX
	MOVQ $15, BX
	CMPQ DX, $4
	JLT  logtail

loggroup:
	VMOVUPD   (SI), Y0
	LOG
	VMOVMSKPD Y1, AX
	CMPQ      AX, BX
	JNE       logsome
	VMOVUPD   Y0, (DI)
	JMP       lognext

logsome:
	VMASKMOVPD Y0, Y1, (DI)
	LEFT

lognext:
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $4, CX
	SUBQ $4, DX
	CMPQ DX, $4
	JGE  loggroup

logtail:
	// The last len(x) mod 4 lanes move one at a time, as in expSubSIMD.
	TESTQ       DX, DX
	JZ          logdone
	VMOVSD      (SI), X0
	CMPQ        DX, $2
	JLT         logtailin
	VMOVHPD     8(SI), X0, X0
	CMPQ        DX, $3
	JLT         logtailin
	VMOVSD      16(SI), X2
	VINSERTF128 $1, X2, Y0, Y0

logtailin:
	LOG
	VMOVMSKPD Y1, AX
	BTQ       $0, AX
	JCC       logtail1
	VMOVSD    X0, (DI)

logtail1:
	CMPQ    DX, $2
	JLT     logtailleft
	BTQ     $1, AX
	JCC     logtail2
	VMOVHPD X0, 8(DI)

logtail2:
	CMPQ         DX, $3
	JLT          logtailleft
	BTQ          $2, AX
	JCC          logtailleft
	VEXTRACTF128 $1, Y0, X0
	VMOVSD       X0, 16(DI)

logtailleft:
	XORQ BX, BX
	BTSQ DX, BX
	DECQ BX
	ANDQ BX, AX
	LEFT

logdone:
	MOVQ R8, left+48(FP)
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
