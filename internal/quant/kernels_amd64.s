//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels for the full-width int8 dot and the screen's integer cut.
//
// # Dots
//
// A row is consumed in 32-byte chunks (16-byte XMM chunks when r < 32). Per
// chunk the query's codes are loaded once and VPABSB takes |q| once for all
// the rows the kernel carries; per row
//
//	VPSIGNB     q, p      →  p·sign(q)          (bytes; 0 where q is 0)
//	VPMADDUBSW  |q|, ·    →  |q|·p·sign(q) = q·p, adjacent pairs summed (words)
//	VPMADDWD    ones, ·   →  adjacent word pairs summed (int32 lanes)
//	VPADDD      ·, acc
//
// VPMADDUBSW saturates its word sums, but codes lie in [-127, 127], so a pair
// sum is at most 2·127² = 32 258 < 2¹⁵ and never saturates: every lane is the
// exact integer, and integer sums are exact in any order, so nothing here
// depends on lane or row interleaving. Negating a code cannot overflow either
// (no code is −128).
//
// When r is not a multiple of the chunk the last chunk is the row's final 32
// (or 16) bytes, overlapping the previous chunk, and a byte tail mask zeroes
// the query lanes an earlier chunk already covered — zero query bytes zero
// both |q| and the signed row — so every load stays inside its r-byte row and
// query and no product is counted twice.
//
// Register use, shared by the dot kernels:
//
//	AX       the query (dotAVX2: a)
//	DX SI DI R8 R9 R10 R11 R12   row pointers
//	CX       byte offset into the query and every row
//	BX       bytes covered by whole chunks (dot8AVX2: first the row numbers)
//	R13      bytes per row, r
//	R14      dot8AVX2: out; dotPanelAVX2: the next survivor slot of rows
//	R15      dotPanelAVX2: the panel rows being prefetched; dot8AVX2: the
//	         codes the row numbers index, while the row pointers are built
//	Y0..Y7   one accumulator per row; Y8 the query chunk, Y9 its |q|;
//	         Y10, Y11 products; Y12 sixteen words of 1; Y13 the tail mask;
//	         Y14 the cut
//
// # Cut
//
// The screen's predicate arrives as one int32 cut per call (intCut in
// quant.go): a row survives when its dot is at least the cut. dot8AVX2 and
// dotPanelAVX2 broadcast it into Y14 and decide eight rows with one signed
// VPCMPGTD (cut > dot: discard) and VMOVMSKPS, whose complement is the
// survivor mask.

// tailMask is 32 zero bytes followed by 32 0xff bytes: the 32 bytes at
// offset t keep the last t lanes of a Y chunk, the 16 at offset 16 + t the
// last t lanes of an X chunk.
DATA tailMask<>+0(SB)/8, $0
DATA tailMask<>+8(SB)/8, $0
DATA tailMask<>+16(SB)/8, $0
DATA tailMask<>+24(SB)/8, $0
DATA tailMask<>+32(SB)/8, $-1
DATA tailMask<>+40(SB)/8, $-1
DATA tailMask<>+48(SB)/8, $-1
DATA tailMask<>+56(SB)/8, $-1
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// ROWPTR sets p to the codes of the row whose number sits at off(BX): R15
// plus that number times R13.
#define ROWPTR(off, p) \
	MOVQ  off(BX), p; \
	IMULQ R13, p; \
	ADDQ  R15, p

// SETUPY derives BX from R13 for 32-byte chunks and loads the tail mask for
// r mod 32 into Y13; SETUPX does the same for 16-byte chunks into X13. Both
// fill Y12 with words of 1 and clobber CX and R15.
#define SETUPY \
	MOVQ R13, BX; \
	ANDQ $~31, BX; \
	MOVQ R13, CX; \
	ANDQ $31, CX; \
	LEAQ tailMask<>(SB), R15; \
	VMOVDQU (R15)(CX*1), Y13; \
	VPCMPEQW Y12, Y12, Y12; \
	VPSRLW $15, Y12, Y12

#define SETUPX \
	MOVQ R13, BX; \
	ANDQ $~15, BX; \
	MOVQ R13, CX; \
	ANDQ $15, CX; \
	LEAQ tailMask<>+16(SB), R15; \
	VMOVDQU (R15)(CX*1), X13; \
	VPCMPEQW Y12, Y12, Y12; \
	VPSRLW $15, Y12, Y12

// QY loads the query chunk at CX and its absolute value; TQY is the
// overlapping last chunk, masked to the lanes no whole chunk covered. QX and
// TQX are the 16-byte forms.
#define QY \
	VMOVDQU (AX)(CX*1), Y8; \
	VPABSB  Y8, Y9

#define TQY \
	VMOVDQU (AX)(CX*1), Y8; \
	VPAND   Y13, Y8, Y8; \
	VPABSB  Y8, Y9

#define QX \
	VMOVDQU (AX)(CX*1), X8; \
	VPABSB  X8, X9

#define TQX \
	VMOVDQU (AX)(CX*1), X8; \
	VPAND   X13, X8, X8; \
	VPABSB  X8, X9

// RY adds the products of the query chunk with 32 codes of row p into the
// int32 lanes of acc; RX is the 16-byte form (its VEX.128 writes leave the
// upper halves of acc at zero).
#define RY(p, acc, tmp) \
	VMOVDQU    (p)(CX*1), tmp; \
	VPSIGNB    Y8, tmp, tmp; \
	VPMADDUBSW tmp, Y9, tmp; \
	VPMADDWD   Y12, tmp, tmp; \
	VPADDD     tmp, acc, acc

#define RX(p, acc, tmp) \
	VMOVDQU    (p)(CX*1), tmp; \
	VPSIGNB    X8, tmp, tmp; \
	VPMADDUBSW tmp, X9, tmp; \
	VPMADDWD   X12, tmp, tmp; \
	VPADDD     tmp, acc, acc

#define ROWS8Y \
	RY(DX, Y0, Y10); \
	RY(SI, Y1, Y11); \
	RY(DI, Y2, Y10); \
	RY(R8, Y3, Y11); \
	RY(R9, Y4, Y10); \
	RY(R10, Y5, Y11); \
	RY(R11, Y6, Y10); \
	RY(R12, Y7, Y11)

#define ROWS8X \
	RX(DX, X0, X10); \
	RX(SI, X1, X11); \
	RX(DI, X2, X10); \
	RX(R8, X3, X11); \
	RX(R9, X4, X10); \
	RX(R10, X5, X11); \
	RX(R11, X6, X10); \
	RX(R12, X7, X11)

#define ZERO8 \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y1, Y1, Y1; \
	VPXOR Y2, Y2, Y2; \
	VPXOR Y3, Y3, Y3; \
	VPXOR Y4, Y4, Y4; \
	VPXOR Y5, Y5, Y5; \
	VPXOR Y6, Y6, Y6; \
	VPXOR Y7, Y7, Y7

// FOLD8 folds the eight accumulators into the eight sums, row j in lane j
// of Y0: two rounds of pairwise adds leave rows 0–3 (Y0) and 4–7 (Y4) summed
// within each 128-bit half, and the halves are added across.
#define FOLD8 \
	VPHADDD Y1, Y0, Y0; \
	VPHADDD Y3, Y2, Y2; \
	VPHADDD Y5, Y4, Y4; \
	VPHADDD Y7, Y6, Y6; \
	VPHADDD Y2, Y0, Y0; \
	VPHADDD Y6, Y4, Y4; \
	VPERM2I128 $0x20, Y4, Y0, Y1; \
	VPERM2I128 $0x31, Y4, Y0, Y2; \
	VPADDD Y2, Y1, Y0

// KEEP8 leaves in reg the survivor mask of the eight dots in Y0 against the
// cut broadcast in Y14: bit j is set when dot j ≥ cut. Clobbers Y1.
#define KEEP8(reg) \
	VPCMPGTD  Y0, Y14, Y1; \
	VMOVMSKPS Y1, reg; \
	XORL      $0xff, reg

// SUM1 folds the eight lanes of Y0 into the low lane of X0.
#define SUM1 \
	VEXTRACTI128 $1, Y0, X1; \
	VPADDD X1, X0, X0; \
	VPSHUFD $0x4e, X0, X1; \
	VPADDD X1, X0, X0; \
	VPSHUFD $0xb1, X0, X1; \
	VPADDD X1, X0, X0

// func dotAVX2(a, b *int8, n int) int32
TEXT ·dotAVX2(SB), NOSPLIT, $0-28
	MOVQ  a+0(FP), AX
	MOVQ  b+8(FP), DX
	MOVQ  n+16(FP), R13
	VPXOR Y0, Y0, Y0
	CMPQ  R13, $32
	JLT   dot_x
	SETUPY
	XORQ  CX, CX

dot_chunk:
	QY
	RY(DX, Y0, Y10)
	ADDQ $32, CX
	CMPQ CX, BX
	JLT  dot_chunk
	CMPQ BX, R13
	JEQ  dot_sum
	LEAQ -32(R13), CX
	TQY
	RY(DX, Y0, Y10)
	JMP  dot_sum

dot_x: // 16 ≤ r < 32: one whole chunk and at most one tail
	SETUPX
	XORQ CX, CX
	QX
	RX(DX, X0, X10)
	CMPQ BX, R13
	JEQ  dot_sum
	LEAQ -16(R13), CX
	TQX
	RX(DX, X0, X10)

dot_sum:
	SUM1
	VMOVD X0, AX
	MOVL  AX, ret+24(FP)
	VZEROUPPER
	RET

// func dot8AVX2(q, codes *int8, rows *[8]int, n int, out *[8]int32, cut int32) uint8
//
// Row j is the n codes at codes + rows[j]·n. It stores the eight dots and
// returns their survivor mask against cut.
TEXT ·dot8AVX2(SB), NOSPLIT, $0-49
	MOVQ q+0(FP), AX
	MOVQ codes+8(FP), R15
	MOVQ rows+16(FP), BX
	MOVQ n+24(FP), R13
	MOVQ out+32(FP), R14
	ROWPTR(0, DX)
	ROWPTR(8, SI)
	ROWPTR(16, DI)
	ROWPTR(24, R8)
	ROWPTR(32, R9)
	ROWPTR(40, R10)
	ROWPTR(48, R11)
	ROWPTR(56, R12)
	ZERO8
	CMPQ R13, $32
	JLT  dot8_x
	SETUPY
	XORQ CX, CX

dot8_chunk:
	QY
	ROWS8Y
	ADDQ $32, CX
	CMPQ CX, BX
	JLT  dot8_chunk
	CMPQ BX, R13
	JEQ  dot8_store
	LEAQ -32(R13), CX
	TQY
	ROWS8Y
	JMP  dot8_store

dot8_x:
	SETUPX
	XORQ CX, CX
	QX
	ROWS8X
	CMPQ BX, R13
	JEQ  dot8_store
	LEAQ -16(R13), CX
	TQX
	ROWS8X

dot8_store:
	FOLD8
	VMOVDQU      Y0, (R14)
	MOVL         cut+40(FP), AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14
	KEEP8(AX)
	MOVB         AX, ret+48(FP)
	VZEROUPPER
	RET

// func dotPanelAVX2(q, panel *int8, n, groups int, cut int32, rows *int32) int
//
// dot8AVX2 over consecutive groups of eight adjacent rows: the row pointers
// are rebuilt from the panel pointer and the row size at the top of each
// group, and a stack slot counts the groups left. A group's survivors (the
// rare case) have their row numbers, the group's first row number (a second
// stack slot) plus their lane, written at R14 in lane order; nothing else is
// stored. The dispatcher finishes the rows mod 8 through dot8AVX2.
//
// A group is 8n contiguous bytes read as eight interleaved streams; each
// chunk step also prefetches its share (8 × the chunk width: four lines for
// a Y chunk, two for an X chunk) of the group two ahead, whose first byte
// R15 points at. Prefetches never fault, so running up to sixteen rows past
// the panel's end is harmless.
TEXT ·dotPanelAVX2(SB), NOSPLIT, $16-56
	MOVQ q+0(FP), AX
	MOVQ panel+8(FP), DX
	MOVQ n+16(FP), R13
	MOVQ rows+40(FP), R14
	MOVL         cut+32(FP), CX
	VMOVD        CX, X14
	VPBROADCASTD X14, Y14
	CMPQ R13, $32
	JLT  panel_setx
	SETUPY
	JMP  panel_start

panel_setx:
	SETUPX

panel_start:
	MOVQ groups+24(FP), R15
	MOVQ R15, left-8(SP)
	MOVQ $0, first-16(SP)
	MOVQ R13, R15
	SHLQ $4, R15
	ADDQ DX, R15 // panel + 16 rows

panel_group:
	LEAQ (DX)(R13*1), SI
	LEAQ (SI)(R13*1), DI
	LEAQ (DI)(R13*1), R8
	LEAQ (R8)(R13*1), R9
	LEAQ (R9)(R13*1), R10
	LEAQ (R10)(R13*1), R11
	LEAQ (R11)(R13*1), R12
	ZERO8
	XORQ CX, CX
	CMPQ R13, $32
	JLT  panel_x

panel_chunk:
	PREFETCHT0 (R15)(CX*8)
	PREFETCHT0 64(R15)(CX*8)
	PREFETCHT0 128(R15)(CX*8)
	PREFETCHT0 192(R15)(CX*8)
	QY
	ROWS8Y
	ADDQ $32, CX
	CMPQ CX, BX
	JLT  panel_chunk
	CMPQ BX, R13
	JEQ  panel_cut
	LEAQ -32(R13), CX
	PREFETCHT0 (R15)(CX*8)
	PREFETCHT0 64(R15)(CX*8)
	PREFETCHT0 128(R15)(CX*8)
	PREFETCHT0 192(R15)(CX*8)
	TQY
	ROWS8Y
	JMP  panel_cut

panel_x:
	PREFETCHT0 (R15)
	PREFETCHT0 64(R15)
	QX
	ROWS8X
	CMPQ BX, R13
	JEQ  panel_cut
	LEAQ -16(R13), CX
	PREFETCHT0 (R15)(CX*8)
	PREFETCHT0 64(R15)(CX*8)
	TQX
	ROWS8X

panel_cut:
	FOLD8
	KEEP8(SI)
	JZ   panel_next
	MOVQ first-16(SP), DI

panel_keep:
	BSFQ SI, R8
	ADDQ DI, R8
	MOVL R8, (R14)
	ADDQ $4, R14
	LEAQ -1(SI), R8
	ANDQ R8, SI
	JNZ  panel_keep

panel_next:
	ADDQ $8, first-16(SP)
	LEAQ (R12)(R13*1), DX
	LEAQ (R15)(R13*8), R15
	DECQ left-8(SP)
	JNZ  panel_group
	SUBQ rows+40(FP), R14
	SHRQ $2, R14
	MOVQ R14, ret+48(FP)
	VZEROUPPER
	RET
