//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels for the full-width int8 dot. A row is consumed in 16-byte
// chunks: VPMOVSXBW widens sixteen codes to words, VPMADDWD multiplies them
// with the query's words and adds adjacent pairs into eight int32 lanes,
// VPADDD accumulates. When r is not a multiple of 16 the last chunk is the
// row's final sixteen bytes, overlapping the previous chunk, with the query
// lanes that chunk already covered zeroed (tailMask) — so every load stays
// inside its r-byte row and no element is counted twice. Integer sums are
// exact in any order; nothing here depends on lane or row interleaving.
//
// Register use, shared by every kernel:
//
//	AX       the query (dotAVX2: a)
//	DX SI DI R8 R9 R10 R11 R12   row pointers
//	CX       byte offset into the query and every row
//	BX       bytes covered by whole chunks, 16⌊r/16⌋
//	R13      bytes per row, r
//	R14      out
//	R15      dotPanel8AVX2 only: the panel rows being prefetched
//	Y0..Y7   one accumulator per row; Y8 the query chunk as words;
//	         Y9, Y10 products; Y11 the tail chunk's lane mask

// tailMask is sixteen zero words followed by sixteen all-ones words: the 32
// bytes at word offset t = r mod 16 keep the last t lanes of a chunk.
DATA tailMask<>+0(SB)/8, $0
DATA tailMask<>+8(SB)/8, $0
DATA tailMask<>+16(SB)/8, $0
DATA tailMask<>+24(SB)/8, $0
DATA tailMask<>+32(SB)/8, $-1
DATA tailMask<>+40(SB)/8, $-1
DATA tailMask<>+48(SB)/8, $-1
DATA tailMask<>+56(SB)/8, $-1
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// SETUP derives BX from R13 and loads the tail mask for r mod 16 into Y11
// (unused when r is a multiple of 16). Clobbers CX and R15.
#define SETUP \
	MOVQ R13, BX; \
	ANDQ $~15, BX; \
	MOVQ R13, CX; \
	ANDQ $15, CX; \
	LEAQ tailMask<>(SB), R15; \
	VMOVDQU (R15)(CX*2), Y11

// QUERY widens the query chunk at CX; TAILQUERY is the overlapping last
// chunk, which keeps only the lanes no whole chunk covered.
#define QUERY \
	VPMOVSXBW (AX)(CX*1), Y8

#define TAILQUERY \
	VPMOVSXBW (AX)(CX*1), Y8; \
	VPAND Y11, Y8, Y8

// ROW adds the pair products of the query chunk in Y8 with sixteen codes of
// row p.
#define ROW(p, acc, tmp) \
	VPMOVSXBW (p)(CX*1), tmp; \
	VPMADDWD Y8, tmp, tmp; \
	VPADDD tmp, acc, acc

#define ZERO8 \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y1, Y1, Y1; \
	VPXOR Y2, Y2, Y2; \
	VPXOR Y3, Y3, Y3; \
	VPXOR Y4, Y4, Y4; \
	VPXOR Y5, Y5, Y5; \
	VPXOR Y6, Y6, Y6; \
	VPXOR Y7, Y7, Y7

#define ROWS8 \
	ROW(DX, Y0, Y9); \
	ROW(SI, Y1, Y10); \
	ROW(DI, Y2, Y9); \
	ROW(R8, Y3, Y10); \
	ROW(R9, Y4, Y9); \
	ROW(R10, Y5, Y10); \
	ROW(R11, Y6, Y9); \
	ROW(R12, Y7, Y10)

// STORE8 folds the eight accumulators into the eight sums and stores them
// at R14: two rounds of pairwise adds leave rows 0–3 (Y0) and 4–7 (Y4) summed
// within each 128-bit half, and the halves are added across.
#define STORE8 \
	VPHADDD Y1, Y0, Y0; \
	VPHADDD Y3, Y2, Y2; \
	VPHADDD Y5, Y4, Y4; \
	VPHADDD Y7, Y6, Y6; \
	VPHADDD Y2, Y0, Y0; \
	VPHADDD Y6, Y4, Y4; \
	VPERM2I128 $0x20, Y4, Y0, Y1; \
	VPERM2I128 $0x31, Y4, Y0, Y2; \
	VPADDD Y2, Y1, Y0; \
	VMOVDQU Y0, (R14)

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
	MOVQ a+0(FP), AX
	MOVQ b+8(FP), DX
	MOVQ n+16(FP), R13
	SETUP
	VPXOR Y0, Y0, Y0
	XORQ CX, CX

dot_chunk:
	QUERY
	ROW(DX, Y0, Y9)
	ADDQ $16, CX
	CMPQ CX, BX
	JLT  dot_chunk
	CMPQ BX, R13
	JEQ  dot_sum
	LEAQ -16(R13), CX
	TAILQUERY
	ROW(DX, Y0, Y9)

dot_sum:
	SUM1
	VMOVD X0, AX
	MOVL  AX, ret+24(FP)
	VZEROUPPER
	RET

// func dot8AVX2(q, p0, p1, p2, p3, p4, p5, p6, p7 *int8, n int, out *[8]int32)
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
	SETUP
	ZERO8
	XORQ CX, CX

dot8_chunk:
	QUERY
	ROWS8
	ADDQ $16, CX
	CMPQ CX, BX
	JLT  dot8_chunk
	CMPQ BX, R13
	JEQ  dot8_store
	LEAQ -16(R13), CX
	TAILQUERY
	ROWS8

dot8_store:
	STORE8
	VZEROUPPER
	RET

// func dotPanelAVX2(q, panel *int8, n, rows int, out *int32)
//
// dot8AVX2 over consecutive groups of eight adjacent rows — the row pointers
// are rebuilt from the panel pointer and the row size at the top of each
// group, and a stack slot counts the groups left — then dotAVX2 over the
// rows mod 8 that remain, SI counting them, so that a short candidate
// prefix costs one call whatever its length.
//
// A group is 8n contiguous bytes read as eight interleaved streams; each
// chunk step also prefetches its share (two lines, 128 = 8·16 bytes) of the
// group two ahead, whose first byte R15 points at. Prefetches never fault,
// so running up to sixteen rows past the panel's end is harmless.
TEXT ·dotPanelAVX2(SB), NOSPLIT, $8-40
	MOVQ q+0(FP), AX
	MOVQ panel+8(FP), DX
	MOVQ n+16(FP), R13
	MOVQ out+32(FP), R14
	SETUP
	MOVQ rows+24(FP), R15
	SHRQ $3, R15
	JZ   panel_rows
	MOVQ R15, left-8(SP)
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

panel_chunk:
	PREFETCHT0 (R15)(CX*8)
	PREFETCHT0 64(R15)(CX*8)
	QUERY
	ROWS8
	ADDQ $16, CX
	CMPQ CX, BX
	JLT  panel_chunk
	CMPQ BX, R13
	JEQ  panel_store
	LEAQ -16(R13), CX
	TAILQUERY
	ROWS8

panel_store:
	STORE8
	ADDQ $32, R14
	LEAQ (R12)(R13*1), DX
	LEAQ (R15)(R13*8), R15
	DECQ left-8(SP)
	JNZ  panel_group

panel_rows:
	MOVQ rows+24(FP), SI
	ANDQ $7, SI
	JZ   panel_done

panel_row:
	VPXOR Y0, Y0, Y0
	XORQ  CX, CX

panel_row_chunk:
	QUERY
	ROW(DX, Y0, Y9)
	ADDQ $16, CX
	CMPQ CX, BX
	JLT  panel_row_chunk
	CMPQ BX, R13
	JEQ  panel_row_sum
	LEAQ -16(R13), CX
	TAILQUERY
	ROW(DX, Y0, Y9)

panel_row_sum:
	SUM1
	VMOVD X0, (R14)
	ADDQ  $4, R14
	ADDQ  R13, DX
	DECQ  SI
	JNZ   panel_row

panel_done:
	VZEROUPPER
	RET
