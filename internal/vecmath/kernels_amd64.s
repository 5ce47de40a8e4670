//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels in the canonical accumulation order of kernels.go: one YMM
// accumulator per row holds the four lanes, VMULPD and VADDPD stay separate
// instructions (two roundings, no FMA), HSUM folds the lanes as
// (l0 + l2) + (l1 + l3), and the tail elements are added with scalar
// VMULSD/VADDSD in index order.
//
// Register use, shared by every kernel:
//
//	AX       the query (Dot: a)
//	DX SI DI R8 R9 R10 R11 R12   row pointers
//	CX       byte offset into the query and every row
//	BX       bytes covered by whole four-lane blocks, 32⌊n/4⌋
//	R13      bytes per row, 8n
//	R14      out
//	R15      dotBatch8AVX2 only: the panel rows being prefetched
//	Y0..Y7   one accumulator per row; Y8 the query block; Y9, Y10 products
//
// Loads are unaligned and never reach past element n-1 of a vector: the
// block loop stops at BX, the tail loop at R13.

// ROW adds the products of the query block in Y8 with four elements of row p.
#define ROW(p, acc, tmp) \
	VMULPD (p)(CX*1), Y8, tmp; \
	VADDPD tmp, acc, acc

// TAILROW adds the product of the query element in X8 with one element of
// row p to the row's sum.
#define TAILROW(p, sum, tmp) \
	VMULSD (p)(CX*1), X8, tmp; \
	VADDSD tmp, sum, sum

// HSUM leaves (l0 + l2) + (l1 + l3) of the lanes of y in the low element of
// x, which must be y's lower half.
#define HSUM(y, x, tmp) \
	VEXTRACTF128 $1, y, tmp; \
	VADDPD tmp, x, x; \
	VUNPCKHPD x, x, tmp; \
	VADDSD tmp, x, x

#define ZERO8 \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

#define BLOCK8 \
	VMOVUPD (AX)(CX*1), Y8; \
	ROW(DX, Y0, Y9); \
	ROW(SI, Y1, Y10); \
	ROW(DI, Y2, Y9); \
	ROW(R8, Y3, Y10); \
	ROW(R9, Y4, Y9); \
	ROW(R10, Y5, Y10); \
	ROW(R11, Y6, Y9); \
	ROW(R12, Y7, Y10)

#define HSUM8 \
	HSUM(Y0, X0, X9); \
	HSUM(Y1, X1, X10); \
	HSUM(Y2, X2, X9); \
	HSUM(Y3, X3, X10); \
	HSUM(Y4, X4, X9); \
	HSUM(Y5, X5, X10); \
	HSUM(Y6, X6, X9); \
	HSUM(Y7, X7, X10)

#define TAIL8 \
	VMOVSD (AX)(CX*1), X8; \
	TAILROW(DX, X0, X9); \
	TAILROW(SI, X1, X10); \
	TAILROW(DI, X2, X9); \
	TAILROW(R8, X3, X10); \
	TAILROW(R9, X4, X9); \
	TAILROW(R10, X5, X10); \
	TAILROW(R11, X6, X9); \
	TAILROW(R12, X7, X10)

#define STORE8 \
	VMOVSD X0, 0(R14); \
	VMOVSD X1, 8(R14); \
	VMOVSD X2, 16(R14); \
	VMOVSD X3, 24(R14); \
	VMOVSD X4, 32(R14); \
	VMOVSD X5, 40(R14); \
	VMOVSD X6, 48(R14); \
	VMOVSD X7, 56(R14)

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
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dotAVX2(a, b *float64, n int) float64
TEXT ·dotAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), AX
	MOVQ b+8(FP), DX
	MOVQ n+16(FP), R13
	SHLQ $3, R13
	MOVQ R13, BX
	ANDQ $~31, BX
	VXORPD Y0, Y0, Y0
	XORQ CX, CX

dot_block:
	VMOVUPD (AX)(CX*1), Y8
	ROW(DX, Y0, Y9)
	ADDQ $32, CX
	CMPQ CX, BX
	JLT  dot_block
	HSUM(Y0, X0, X9)
	CMPQ CX, R13
	JGE  dot_done

dot_tail:
	VMOVSD (AX)(CX*1), X8
	TAILROW(DX, X0, X9)
	ADDQ $8, CX
	CMPQ CX, R13
	JLT  dot_tail

dot_done:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func dot4AVX2(q, p0, p1, p2, p3 *float64, n int, out *[4]float64)
TEXT ·dot4AVX2(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), AX
	MOVQ p0+8(FP), DX
	MOVQ p1+16(FP), SI
	MOVQ p2+24(FP), DI
	MOVQ p3+32(FP), R8
	MOVQ n+40(FP), R13
	MOVQ out+48(FP), R14
	SHLQ $3, R13
	MOVQ R13, BX
	ANDQ $~31, BX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ CX, CX

dot4_block:
	VMOVUPD (AX)(CX*1), Y8
	ROW(DX, Y0, Y9)
	ROW(SI, Y1, Y10)
	ROW(DI, Y2, Y9)
	ROW(R8, Y3, Y10)
	ADDQ $32, CX
	CMPQ CX, BX
	JLT  dot4_block
	HSUM(Y0, X0, X9)
	HSUM(Y1, X1, X10)
	HSUM(Y2, X2, X9)
	HSUM(Y3, X3, X10)
	CMPQ CX, R13
	JGE  dot4_done

dot4_tail:
	VMOVSD (AX)(CX*1), X8
	TAILROW(DX, X0, X9)
	TAILROW(SI, X1, X10)
	TAILROW(DI, X2, X9)
	TAILROW(R8, X3, X10)
	ADDQ $8, CX
	CMPQ CX, R13
	JLT  dot4_tail

dot4_done:
	VMOVSD X0, 0(R14)
	VMOVSD X1, 8(R14)
	VMOVSD X2, 16(R14)
	VMOVSD X3, 24(R14)
	VZEROUPPER
	RET

// func dot8AVX2(q, p0, p1, p2, p3, p4, p5, p6, p7 *float64, n int, out *[8]float64)
TEXT ·dot8AVX2(SB), NOSPLIT, $0-88
	MOVQ q+0(FP), AX
	MOVQ p0+8(FP), DX
	MOVQ p1+16(FP), SI
	MOVQ p2+24(FP), DI
	MOVQ p3+32(FP), R8
	MOVQ p4+40(FP), R9
	MOVQ p5+48(FP), R10
	MOVQ p6+56(FP), R11
	MOVQ p7+64(FP), R12
	MOVQ n+72(FP), R13
	MOVQ out+80(FP), R14
	SHLQ $3, R13
	MOVQ R13, BX
	ANDQ $~31, BX
	ZERO8
	XORQ CX, CX

dot8_block:
	BLOCK8
	ADDQ $32, CX
	CMPQ CX, BX
	JLT  dot8_block
	HSUM8
	CMPQ CX, R13
	JGE  dot8_done

dot8_tail:
	TAIL8
	ADDQ $8, CX
	CMPQ CX, R13
	JLT  dot8_tail

dot8_done:
	STORE8
	VZEROUPPER
	RET

// func dotBatch8AVX2(q, panel *float64, n, groups int, out *float64)
//
// dot8AVX2 over consecutive groups of eight adjacent rows: the row pointers
// are rebuilt from the panel pointer and the row size at the top of each
// group, and a stack slot counts the groups left.
//
// A group is 8n contiguous doubles read as eight interleaved streams, which
// the hardware prefetchers follow poorly, so each block step also prefetches
// its share (four lines, 256 = 8·32 bytes) of the group two ahead, whose
// first byte R15 points at. Prefetches never fault, so running up to sixteen
// rows past the panel's end is harmless.
TEXT ·dotBatch8AVX2(SB), NOSPLIT, $8-40
	MOVQ q+0(FP), AX
	MOVQ panel+8(FP), DX
	MOVQ n+16(FP), R13
	MOVQ groups+24(FP), R15
	MOVQ R15, left-8(SP)
	MOVQ out+32(FP), R14
	SHLQ $3, R13
	MOVQ R13, BX
	ANDQ $~31, BX
	MOVQ R13, R15
	SHLQ $4, R15
	ADDQ DX, R15 // panel + 16 rows

batch_group:
	LEAQ (DX)(R13*1), SI
	LEAQ (SI)(R13*1), DI
	LEAQ (DI)(R13*1), R8
	LEAQ (R8)(R13*1), R9
	LEAQ (R9)(R13*1), R10
	LEAQ (R10)(R13*1), R11
	LEAQ (R11)(R13*1), R12
	ZERO8
	XORQ CX, CX

batch_block:
	PREFETCHT0 (R15)(CX*8)
	PREFETCHT0 64(R15)(CX*8)
	PREFETCHT0 128(R15)(CX*8)
	PREFETCHT0 192(R15)(CX*8)
	BLOCK8
	ADDQ $32, CX
	CMPQ CX, BX
	JLT  batch_block
	HSUM8
	CMPQ CX, R13
	JGE  batch_store

batch_tail:
	TAIL8
	ADDQ $8, CX
	CMPQ CX, R13
	JLT  batch_tail

batch_store:
	STORE8
	ADDQ $64, R14
	LEAQ (R12)(R13*1), DX
	LEAQ (R15)(R13*8), R15
	DECQ left-8(SP)
	JNZ  batch_group
	VZEROUPPER
	RET

