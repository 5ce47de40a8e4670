//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels for the full-width int8 dot and for the screen's predicate.
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
//	R14      out
//	R15      dotPanelAVX2: the panel rows being prefetched; dot8AVX2: the
//	         codes the row numbers index, while the row pointers are built
//	Y0..Y7   one accumulator per row; Y8 the query chunk, Y9 its |q|;
//	         Y10, Y11 products; Y12 sixteen words of 1; Y13 the tail mask
//
// # Predicate
//
// siftAVX2 and dot8AVX2 decide eight rows at a time exactly as survives
// (quant.go) does one: VCVTDQ2PD widens the dots exactly, then
//
//	ub = (qs·scale)·d + resid;   discard iff ub ≥ −MaxFloat64 && ub < cut
//
// in that operation order, each step one IEEE rounding (no FMA), both
// comparisons ordered and quiet (false on NaN, so a NaN survives), and
// VMOVMSKPD turns the eight decisions into a bit mask.

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

// negMax is −MaxFloat64 (bits 0xffefffffffffffff).
DATA negMax<>+0(SB)/8, $-4503599627370497
GLOBL negMax<>(SB), RODATA|NOPTR, $8

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

// PRED decides eight rows from their dots as float64 (Y0 rows 0–3, Y1 rows
// 4–7) and scales (Y2, Y3), with Y12 = qs, Y13 = resid, Y14 = cut and
// Y15 = −MaxFloat64 broadcast, and leaves the discard mask (bit j set: row j
// is discarded) in R9. Clobbers Y2–Y5 and R10.
#define PRED \
	VMULPD    Y2, Y12, Y2; \
	VMULPD    Y3, Y12, Y3; \
	VMULPD    Y0, Y2, Y2; \
	VMULPD    Y1, Y3, Y3; \
	VADDPD    Y13, Y2, Y2; \
	VADDPD    Y13, Y3, Y3; \
	VCMPPD    $0x1d, Y15, Y2, Y4; \
	VCMPPD    $0x1d, Y15, Y3, Y5; \
	VCMPPD    $0x11, Y14, Y2, Y2; \
	VCMPPD    $0x11, Y14, Y3, Y3; \
	VANDPD    Y4, Y2, Y2; \
	VANDPD    Y5, Y3, Y3; \
	VMOVMSKPD Y2, R9; \
	VMOVMSKPD Y3, R10; \
	SHLQ      $4, R10; \
	ORQ       R10, R9

// PREDCONST broadcasts the predicate's constants into Y12–Y15 from the
// frame slots of qs, resid and cut.
#define PREDCONST(qs, resid, cut) \
	VBROADCASTSD qs, Y12; \
	VBROADCASTSD resid, Y13; \
	VBROADCASTSD cut, Y14; \
	VBROADCASTSD negMax<>(SB), Y15

// SCALES2 loads into v the scales of the four rows whose numbers sit at
// off(BX), from the scale array at SI, lo and hi collecting two each.
#define SCALES2(off, lo, hi, v) \
	MOVQ        off(BX), R10; \
	VMOVSD      (SI)(R10*8), lo; \
	MOVQ        off+8(BX), R10; \
	VMOVHPD     (SI)(R10*8), lo, lo; \
	MOVQ        off+16(BX), R10; \
	VMOVSD      (SI)(R10*8), hi; \
	MOVQ        off+24(BX), R10; \
	VMOVHPD     (SI)(R10*8), hi, hi; \
	VINSERTF128 $1, hi, v, v

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

// func dot8AVX2(q, codes *int8, rows *[8]int, n int, out *[8]int32, scales *float64, qs, resid, cut float64) uint8
//
// Row j is the n codes at codes + rows[j]·n. With scales nil it stores the
// eight dots and returns 0. Otherwise it also screens the eight rows
// straight from the registers (Screen8): row j's scale is scales[rows[j]],
// and bit j of the result is set when row j survives. Scales are loaded one
// by one, not as a vector: the caller has just written rows element by
// element, and a vector load spanning several pending stores stalls until
// they land.
TEXT ·dot8AVX2(SB), NOSPLIT, $0-73
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
	STORE8
	MOVQ  scales+40(FP), SI
	TESTQ SI, SI
	JNZ   dot8_screen
	MOVB  $0, ret+72(FP)
	VZEROUPPER
	RET

dot8_screen:
	VEXTRACTI128 $1, Y0, X1
	VCVTDQ2PD X1, Y1
	VCVTDQ2PD X0, Y0
	MOVQ rows+16(FP), BX
	SCALES2(0, X2, X4, Y2)
	SCALES2(32, X3, X5, Y3)
	PREDCONST(qs+48(FP), resid+56(FP), cut+64(FP))
	PRED
	NOTQ R9
	MOVB R9, ret+72(FP)
	VZEROUPPER
	RET

// func dotPanelAVX2(q, panel *int8, n, groups int, out *int32)
//
// dot8AVX2 over consecutive groups of eight adjacent rows: the row pointers
// are rebuilt from the panel pointer and the row size at the top of each
// group, and a stack slot counts the groups left. The dispatcher finishes
// the rows mod 8 through dot8AVX2.
//
// A group is 8n contiguous bytes read as eight interleaved streams; each
// chunk step also prefetches its share (8 × the chunk width: four lines for
// a Y chunk, two for an X chunk) of the group two ahead, whose first byte
// R15 points at. Prefetches never fault, so running up to sixteen rows past
// the panel's end is harmless.
TEXT ·dotPanelAVX2(SB), NOSPLIT, $8-40
	MOVQ q+0(FP), AX
	MOVQ panel+8(FP), DX
	MOVQ n+16(FP), R13
	MOVQ out+32(FP), R14
	CMPQ R13, $32
	JLT  panel_setx
	SETUPY
	JMP  panel_start

panel_setx:
	SETUPX

panel_start:
	MOVQ groups+24(FP), R15
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
	JEQ  panel_store
	LEAQ -32(R13), CX
	PREFETCHT0 (R15)(CX*8)
	PREFETCHT0 64(R15)(CX*8)
	PREFETCHT0 128(R15)(CX*8)
	PREFETCHT0 192(R15)(CX*8)
	TQY
	ROWS8Y
	JMP  panel_store

panel_x:
	PREFETCHT0 (R15)
	PREFETCHT0 64(R15)
	QX
	ROWS8X
	CMPQ BX, R13
	JEQ  panel_store
	LEAQ -16(R13), CX
	PREFETCHT0 (R15)(CX*8)
	PREFETCHT0 64(R15)(CX*8)
	TQX
	ROWS8X

panel_store:
	STORE8
	ADDQ $32, R14
	LEAQ (R12)(R13*1), DX
	LEAQ (R15)(R13*8), R15
	DECQ left-8(SP)
	JNZ  panel_group
	VZEROUPPER
	RET

// func siftAVX2(dots *int32, scales *float64, n int, qs, resid, cut float64, rows *int32) int
//
// Screens the first n (a positive multiple of 8) rows group by group and
// compacts the survivors in order: row numbers to rows, their dots to the
// front of dots. A survivor's dot is read back from dots before the write
// that could reach it: writes land below the survivor count, which never
// passes the row being read.
TEXT ·siftAVX2(SB), NOSPLIT, $0-64
	MOVQ dots+0(FP), DI
	MOVQ scales+8(FP), SI
	MOVQ n+16(FP), CX
	PREDCONST(qs+24(FP), resid+32(FP), cut+40(FP))
	MOVQ rows+48(FP), R8
	XORQ AX, AX // row of the group
	XORQ BX, BX // survivors so far

sift_group:
	VCVTDQ2PD (DI)(AX*4), Y0
	VCVTDQ2PD 16(DI)(AX*4), Y1
	VMOVUPD   (SI)(AX*8), Y2
	VMOVUPD   32(SI)(AX*8), Y3
	PRED
	XORQ $0xff, R9
	JZ   sift_next

sift_keep:
	BSFQ R9, R10
	ADDQ AX, R10
	MOVL (DI)(R10*4), R11
	MOVL R10, (R8)(BX*4)
	MOVL R11, (DI)(BX*4)
	INCQ BX
	LEAQ -1(R9), R10
	ANDQ R10, R9
	JNZ  sift_keep

sift_next:
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  sift_group
	MOVQ BX, ret+56(FP)
	VZEROUPPER
	RET
