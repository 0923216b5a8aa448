#include "textflag.h"

// STEP is one k step of the 2×4 tile: a0, a1 at ao(SI), b0…b3 at bo(DI).
// Each of a0 and a1 is broadcast to both lanes of a register, each b
// pair is loaded once per row, and every lane takes one MULPD product
// and then one ADDPD into its own accumulator — two roundings, the Go
// loop's c += a*b, never fused. Lanes of X0…X3 are c00 c01 | c02 c03 |
// c10 c11 | c12 c13.
#define STEP(ao, bo) \
	MOVSD    ao(SI), X6; \
	UNPCKLPD X6, X6; \
	MOVSD    ao+8(SI), X7; \
	UNPCKLPD X7, X7; \
	MOVUPD   bo(DI), X4; \
	MOVUPD   bo+16(DI), X5; \
	MOVUPD   bo(DI), X8; \
	MOVUPD   bo+16(DI), X9; \
	MULPD    X6, X4; \
	MULPD    X6, X5; \
	MULPD    X7, X8; \
	MULPD    X7, X9; \
	ADDPD    X4, X0; \
	ADDPD    X5, X1; \
	ADDPD    X8, X2; \
	ADDPD    X9, X3

// func micro2x4SSE2(ap, bp *float64, K int, dst *float64, ldc int)
//
// Fills the 2×4 tile at dst (rows ldc elements apart) with the dot
// products of the k-major panels ap (2 rows) and bp (4 columns) over
// K ≥ 1 steps, k ascending, each accumulator started at +0.
TEXT ·micro2x4SSE2(SB), NOSPLIT, $0-40
	MOVQ  ap+0(FP), SI
	MOVQ  bp+8(FP), DI
	MOVQ  K+16(FP), CX
	MOVQ  dst+24(FP), DX
	MOVQ  ldc+32(FP), BX
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	SUBQ  $2, CX
	JLT   tail

pair:
	STEP(0, 0)
	STEP(16, 32)
	ADDQ $32, SI
	ADDQ $64, DI
	SUBQ $2, CX
	JGE  pair

tail:
	ADDQ $2, CX // CX is what is left of K: 0 or 1
	JZ   store
	STEP(0, 0)

store:
	MOVUPD X0, 0(DX)
	MOVUPD X1, 16(DX)
	LEAQ   (DX)(BX*8), DX
	MOVUPD X2, 0(DX)
	MOVUPD X3, 16(DX)
	RET

// ISTEP is STEP with the two A values read in place: a0 at (SI)(R),
// a1 at (R10)(R), R the k step's index-table entry, b0…b3 at bo(DI).
#define ISTEP(R, bo) \
	MOVSD    (SI)(R*8), X6; \
	UNPCKLPD X6, X6; \
	MOVSD    (R10)(R*8), X7; \
	UNPCKLPD X7, X7; \
	MOVUPD   bo(DI), X4; \
	MOVUPD   bo+16(DI), X5; \
	MOVUPD   bo(DI), X8; \
	MOVUPD   bo+16(DI), X9; \
	MULPD    X6, X4; \
	MULPD    X6, X5; \
	MULPD    X7, X8; \
	MULPD    X7, X9; \
	ADDPD    X4, X0; \
	ADDPD    X5, X1; \
	ADDPD    X8, X2; \
	ADDPD    X9, X3

// func micro2x4IdxSSE2(x *float64, o0, o1 int, idx *int, K int, bp, dst *float64, rs, cs int)
//
// Fills the 2×4 tile at dst, element (r, c) at dst[r·rs + c·cs], with
// the dot products over K ≥ 1 steps, k ascending, each accumulator
// started at +0, of lane r's a[k] = x[o_r + idx[k]] and the k-major
// 4-column panel bp.
TEXT ·micro2x4IdxSSE2(SB), NOSPLIT, $0-72
	MOVQ  x+0(FP), AX
	MOVQ  o0+8(FP), SI
	MOVQ  o1+16(FP), R10
	LEAQ  (AX)(SI*8), SI
	LEAQ  (AX)(R10*8), R10
	MOVQ  idx+24(FP), R8
	MOVQ  K+32(FP), CX
	MOVQ  bp+40(FP), DI
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	SUBQ  $2, CX
	JLT   itail

ipair:
	MOVQ 0(R8), AX
	MOVQ 8(R8), BX
	ISTEP(AX, 0)
	ISTEP(BX, 32)
	ADDQ $16, R8
	ADDQ $64, DI
	SUBQ $2, CX
	JGE  ipair

itail:
	ADDQ $2, CX // CX is what is left of K: 0 or 1
	JZ   istore
	MOVQ 0(R8), AX
	ISTEP(AX, 0)

istore:
	MOVQ   dst+48(FP), DX
	MOVQ   rs+56(FP), BX
	MOVQ   cs+64(FP), R9
	SHLQ   $3, BX
	SHLQ   $3, R9
	MOVQ   DX, R11
	MOVLPD X0, 0(R11)
	ADDQ   R9, R11
	MOVHPD X0, 0(R11)
	ADDQ   R9, R11
	MOVLPD X1, 0(R11)
	ADDQ   R9, R11
	MOVHPD X1, 0(R11)
	ADDQ   BX, DX
	MOVLPD X2, 0(DX)
	ADDQ   R9, DX
	MOVHPD X2, 0(DX)
	ADDQ   R9, DX
	MOVLPD X3, 0(DX)
	ADDQ   R9, DX
	MOVHPD X3, 0(DX)
	RET
