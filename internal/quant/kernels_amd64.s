//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels for the full-width int8 dot and the screen's integer cut,
// and for the quantizer that builds the codes (# Quantizer, below).
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

// # Block kernel
//
// screenBlockVNNI screens one panel for four queries at once with the
// AVX-512 VNNI VPDPBUSD, which multiplies unsigned bytes with signed bytes
// and adds each group of four products into an int32 lane. A row chunk's
// codes have their sign bit flipped (VPXORQ with 0x80: p + 128, in
// [1, 255]) and are multiplied into every query's chunk:
//
//	VPDPBUSD  q_j, p+128, acc   →  Σ (p+128)·q_j over four bytes, per lane
//
// so each row chunk is loaded once for four queries. The dot is the lane sum
// minus 128·Σq_j, which the dispatcher folds into the cut (Block.runKernel);
// every partial sum is at most 255·127·r < 2³¹ in magnitude (blockMaxDim),
// and VPDPBUSD is the non-saturating form, so every lane holds the exact
// integer. The queries arrive packed (Block.packBlock): chunk c of query j at
// qbuf + 128c + 32j, zero past r, so the chunk at byte offset CX of a row is
// the one at 4·CX + 32j of qbuf; VBROADCASTI64X4 puts it in both halves of a
// ZMM register. A row's last r mod 32 bytes are read with a zeroing byte
// mask (VMOVDQU8.Z, K1), which loads nothing past the row; the zeroed lanes
// become 0x80 and meet zero query bytes.
//
// A group is four adjacent rows, two to a ZMM register: rows 0 and 1 in the
// low and high half of Z16, rows 2 and 3 in Z17. Eight accumulators, Z0–Z3
// for rows 0–1 and Z4–Z7 for rows 2–3 (query j in Zj and Z4+j), fold into
// one vector of sixteen dots (LANES, QWORDS, DWORDS), which VPERMD puts in
// the order of the limits and cuts, query j's rows 0–3 in lanes 4j … 4j+3.
// One VPCMPD against the biased cuts, masked by row number < the query's
// limit, leaves the survivors in K3, and their row numbers are written to
// their query's output. The group past the panel's end reads its missing
// rows as the last row, which every limit excludes.
//
// Register use:
//
//	AX       qbuf
//	BX       bytes covered by whole chunks, 32⌊r/32⌋
//	CX       byte offset into every row
//	DX SI DI R8   the group's row pointers
//	R11      the group's first row number; R12 the panel's last
//	R13      r; R14 out; R15 the panel's last row
//	R9 R10   scratch
//	Z16, Z17 the flipped row-pair chunks, Y18 a masked tail load; Z20 bytes
//	         of 0x80; Z21–Z24 the query chunks; Z25 lane row numbers; Z26
//	         the limits and Z27 the cuts; Z28 the fold's lane order; Z31 a
//	         fold temporary
//	K1 the tail byte mask; K2, K5, K6, K7 the fold blends; K3 survivors

// laneRows is the row offset of each lane of the folded dots, query j's
// rows 0–3 in lanes 4j … 4j+3; fours steps it by a group. foldOrder
// takes the folded dots into that order (VPERMD).
DATA laneRows<>+0(SB)/8, $0x0000000100000000
DATA laneRows<>+8(SB)/8, $0x0000000300000002
DATA laneRows<>+16(SB)/8, $0x0000000100000000
DATA laneRows<>+24(SB)/8, $0x0000000300000002
DATA laneRows<>+32(SB)/8, $0x0000000100000000
DATA laneRows<>+40(SB)/8, $0x0000000300000002
DATA laneRows<>+48(SB)/8, $0x0000000100000000
DATA laneRows<>+56(SB)/8, $0x0000000300000002
GLOBL laneRows<>(SB), RODATA|NOPTR, $64

DATA fours<>+0(SB)/8, $0x0000000400000004
DATA fours<>+8(SB)/8, $0x0000000400000004
DATA fours<>+16(SB)/8, $0x0000000400000004
DATA fours<>+24(SB)/8, $0x0000000400000004
DATA fours<>+32(SB)/8, $0x0000000400000004
DATA fours<>+40(SB)/8, $0x0000000400000004
DATA fours<>+48(SB)/8, $0x0000000400000004
DATA fours<>+56(SB)/8, $0x0000000400000004
GLOBL fours<>(SB), RODATA|NOPTR, $64

DATA foldOrder<>+0(SB)/8, $0x0000000800000000
DATA foldOrder<>+8(SB)/8, $0x0000000900000001
DATA foldOrder<>+16(SB)/8, $0x0000000c00000004
DATA foldOrder<>+24(SB)/8, $0x0000000d00000005
DATA foldOrder<>+32(SB)/8, $0x0000000a00000002
DATA foldOrder<>+40(SB)/8, $0x0000000b00000003
DATA foldOrder<>+48(SB)/8, $0x0000000e00000006
DATA foldOrder<>+56(SB)/8, $0x0000000f00000007
GLOBL foldOrder<>(SB), RODATA|NOPTR, $64

// BQUERY broadcasts each query's chunk at row offset CX into both halves of
// Z21–Z24.
#define BQUERY \
	VBROADCASTI64X4 (AX)(CX*4), Z21; \
	VBROADCASTI64X4 32(AX)(CX*4), Z22; \
	VBROADCASTI64X4 64(AX)(CX*4), Z23; \
	VBROADCASTI64X4 96(AX)(CX*4), Z24

// BMUL adds the products of the two flipped row-pair chunks Z16 (rows 0, 1)
// and Z17 (rows 2, 3) with the four query chunks into the eight
// accumulators.
#define BMUL \
	VPDPBUSD Z21, Z16, Z0; \
	VPDPBUSD Z22, Z16, Z1; \
	VPDPBUSD Z23, Z16, Z2; \
	VPDPBUSD Z24, Z16, Z3; \
	VPDPBUSD Z21, Z17, Z4; \
	VPDPBUSD Z22, Z17, Z5; \
	VPDPBUSD Z23, Z17, Z6; \
	VPDPBUSD Z24, Z17, Z7

// LANES sets x to [x.l0 + x.l1, y.l0 + y.l1, x.l2 + x.l3, y.l2 + y.l3]
// (128-bit lanes): each row half of x and y summed.
#define LANES(x, y) \
	VPBLENDMQ  x, y, K2, Z31; \
	VSHUFI64X2 $0xb1, Z31, Z31, Z31; \
	VPBLENDMQ  y, x, K2, x; \
	VPADDD     Z31, x, x

// QWORDS sets x to [x.q0 + x.q1, y.q0 + y.q1] in each 128-bit lane.
#define QWORDS(x, y) \
	VPALIGNR  $8, x, y, Z31; \
	VPBLENDMQ y, x, K5, x; \
	VPADDD    Z31, x, x

// DWORDS sets x to [x.d0 + x.d1, y.d0 + y.d1] in each 64-bit quarter.
#define DWORDS(x, y) \
	VPBLENDMD y, x, K7, Z31; \
	VPSHUFD   $0xb1, Z31, Z31; \
	VPBLENDMD y, x, K6, x; \
	VPADDD    Z31, x, x

// func screenBlockVNNI(qbuf, panel *int8, r, n int, lim, cut *[16]int32, out *[4]*int32, cnt *[4]int)
TEXT ·screenBlockVNNI(SB), NOSPLIT, $0-64
	MOVQ qbuf+0(FP), AX
	MOVQ panel+8(FP), DX
	MOVQ r+16(FP), R13
	MOVQ n+24(FP), R12
	DECQ R12
	MOVQ R12, R15
	IMULQ R13, R15
	ADDQ DX, R15 // the last row
	MOVQ lim+32(FP), R9
	VMOVDQU32 (R9), Z26
	MOVQ cut+40(FP), R9
	VMOVDQU32 (R9), Z27
	VMOVDQU32 laneRows<>(SB), Z25
	VMOVDQU32 foldOrder<>(SB), Z28
	MOVL $0x80808080, R9
	VPBROADCASTD R9, Z20
	MOVQ R13, CX
	ANDQ $31, CX
	MOVL $1, R9
	SHLL CX, R9
	DECL R9
	KMOVD R9, K1
	MOVL $0xcc, R9
	KMOVW R9, K2
	MOVL $0xaa, R9
	KMOVW R9, K5
	MOVL $0xaaaa, R9
	KMOVW R9, K6
	MOVL $0x5555, R9
	KMOVW R9, K7
	MOVQ R13, BX
	ANDQ $~31, BX
	XORQ R11, R11
	MOVQ out+48(FP), R14

block_group:
	LEAQ (DX)(R13*1), SI
	LEAQ (SI)(R13*1), DI
	LEAQ (DI)(R13*1), R8
	LEAQ 3(R11), R9
	CMPQ R9, R12
	JLE  block_zero
	// The last group: rows past the panel read as its last row.
	LEAQ    1(R11), R9
	CMPQ    R9, R12
	CMOVQGT R15, SI
	LEAQ    2(R11), R9
	CMPQ    R9, R12
	CMOVQGT R15, DI
	MOVQ    R15, R8

block_zero:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ CX, CX
	CMPQ BX, $0
	JEQ  block_tail

block_chunk:
	BQUERY
	VMOVDQU8     (DX)(CX*1), Y16
	VINSERTI64X4 $1, (SI)(CX*1), Z16, Z16
	VMOVDQU8     (DI)(CX*1), Y17
	VINSERTI64X4 $1, (R8)(CX*1), Z17, Z17
	VPXORQ       Z20, Z16, Z16
	VPXORQ       Z20, Z17, Z17
	BMUL
	ADDQ $32, CX
	CMPQ CX, BX
	JLT  block_chunk

block_tail:
	CMPQ CX, R13
	JEQ  block_fold
	BQUERY
	VMOVDQU8.Z   (DX)(CX*1), K1, Y16
	VMOVDQU8.Z   (SI)(CX*1), K1, Y18
	VINSERTI64X4 $1, Y18, Z16, Z16
	VMOVDQU8.Z   (DI)(CX*1), K1, Y17
	VMOVDQU8.Z   (R8)(CX*1), K1, Y18
	VINSERTI64X4 $1, Y18, Z17, Z17
	VPXORQ       Z20, Z16, Z16
	VPXORQ       Z20, Z17, Z17
	BMUL

block_fold:
	LANES(Z0, Z1)
	LANES(Z2, Z3)
	LANES(Z4, Z5)
	LANES(Z6, Z7)
	QWORDS(Z0, Z2)
	QWORDS(Z4, Z6)
	DWORDS(Z0, Z4)
	VPERMD Z0, Z28, Z0
	VPCMPD $5, Z27, Z0, K3
	VPCMPD $1, Z26, Z25, K3, K3
	VPADDD fours<>(SB), Z25, Z25
	KMOVW K3, R9
	TESTL R9, R9
	JZ    block_next

	// Survivors: bits 4j … 4j+3 of R9 are query j's rows R11 … R11+3.
	XORQ SI, SI

block_query:
	MOVQ R9, DI
	ANDQ $15, DI
	JZ   block_query_next
	MOVQ (R14)(SI*1), R8
	MOVQ cnt+56(FP), CX
	MOVQ (CX)(SI*1), R10

block_keep:
	BSFQ DI, CX
	ADDQ R11, CX
	MOVL CX, (R8)(R10*4)
	INCQ R10
	LEAQ -1(DI), CX
	ANDQ CX, DI
	JNZ  block_keep
	MOVQ cnt+56(FP), CX
	MOVQ R10, (CX)(SI*1)

block_query_next:
	SHRQ $4, R9
	ADDQ $8, SI
	CMPQ SI, $32
	JLT  block_query

block_next:
	LEAQ (DX)(R13*4), DX
	ADDQ $4, R11
	CMPQ R11, R12
	JLE  block_group
	VZEROUPPER
	RET

// # Quantizer
//
// quantize4AVX2 runs quantizeRow's loop on four rows at once, one row per
// float64 lane, so that each lane computes its row's codes and sums with the
// scalar loop's operations in the scalar loop's order: per coordinate j, in
// j = 0, 1, …, r−1,
//
//	c    = min(max((x·inv + 0x1.8p52) − 0x1.8p52, −127), 127)
//	deq  = scale·c
//	sumd += (x − deq)·(x − deq);  sumq += deq·deq;  nonFinite += x − x
//
// each operation one rounded VMULPD, VADDPD, VSUBPD, VMAXPD or VMINPD (no
// FMA), so every lane's bits are the scalar loop's. The clamp differs from
// clampCode only on a NaN quotient, whose row Go clears (its nonFinite is
// NaN). Four coordinates of the four rows are loaded as four 32-byte row
// chunks and transposed (VUNPCKLPD/VUNPCKHPD, VPERM2F128) into one vector
// per coordinate; the codes, exact integers in [−127, 127] after the clamp,
// are truncated to int32 (VCVTTPD2DQ), packed to bytes (VPACKSSDW,
// VPACKSSWB) and transposed back (VPSHUFB), and each row's four codes are
// stored as one dword. The last r mod 4 coordinates go one at a time, each
// lane loaded and each code stored on its own, so no load or store leaves
// the rows or their codes.
//
// Register use:
//
//	R8 R9 R10 R11    the four rows
//	R12 R13 R14 R15  their codes
//	AX  the coordinate; BX the coordinates in whole chunks; CX r
//	Y0 sumd, Y1 sumq, Y2 nonFinite (one lane per row)
//	Y3, Y8  temporaries; Y4..Y7 the chunk's coordinates, then their codes
//	Y11 −127, Y12 127, Y13 0x1.8p52, Y14 scale, Y15 inv

DATA quantShift<>+0(SB)/8, $0x4338000000000000 // 0x1.8p52
GLOBL quantShift<>(SB), RODATA|NOPTR, $8

DATA quantMax<>+0(SB)/8, $0x405fc00000000000 // 127
GLOBL quantMax<>(SB), RODATA|NOPTR, $8

DATA quantMin<>+0(SB)/8, $0xc05fc00000000000 // −127
GLOBL quantMin<>(SB), RODATA|NOPTR, $8

// codeTranspose reorders the sixteen code bytes of four coordinates (byte
// 4j + k: coordinate j of row k) into row order (byte 4k + j).
DATA codeTranspose<>+0(SB)/8, $0x0d0905010c080400
DATA codeTranspose<>+8(SB)/8, $0x0f0b07030e0a0602
GLOBL codeTranspose<>(SB), RODATA|NOPTR, $16

// QSTEP runs one coordinate of the four rows, held in y (x names its low
// half), through the scalar loop's operations, accumulating into Y0..Y2,
// and leaves the four codes as int32 in x. Clobbers Y3 and Y8.
#define QSTEP(y, x) \
	VMULPD      Y15, y, Y3; \
	VADDPD      Y13, Y3, Y3; \
	VSUBPD      Y13, Y3, Y3; \
	VMAXPD      Y11, Y3, Y3; \
	VMINPD      Y12, Y3, Y3; \
	VSUBPD      y, y, Y8; \
	VADDPD      Y8, Y2, Y2; \
	VMULPD      Y14, Y3, Y8; \
	VSUBPD      Y8, y, y; \
	VMULPD      y, y, y; \
	VADDPD      y, Y0, Y0; \
	VMULPD      Y8, Y8, Y8; \
	VADDPD      Y8, Y1, Y1; \
	VCVTTPD2DQY Y3, x

// func quantize4AVX2(rows *float64, codes *int8, n int, scale, inv float64, sums *[12]float64)
TEXT ·quantize4AVX2(SB), NOSPLIT, $0-48
	MOVQ rows+0(FP), R8
	MOVQ codes+8(FP), R12
	MOVQ n+16(FP), CX
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	LEAQ (R10)(CX*8), R11
	LEAQ (R12)(CX*1), R13
	LEAQ (R13)(CX*1), R14
	LEAQ (R14)(CX*1), R15
	VBROADCASTSD scale+24(FP), Y14
	VBROADCASTSD inv+32(FP), Y15
	VBROADCASTSD quantShift<>(SB), Y13
	VBROADCASTSD quantMax<>(SB), Y12
	VBROADCASTSD quantMin<>(SB), Y11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	MOVQ CX, BX
	ANDQ $~3, BX
	XORQ AX, AX

quant_chunk:
	VMOVUPD (R8)(AX*8), Y3
	VMOVUPD (R9)(AX*8), Y4
	VMOVUPD (R10)(AX*8), Y5
	VMOVUPD (R11)(AX*8), Y6
	VUNPCKLPD  Y4, Y3, Y7        // rows 0,1 of coordinates 0 and 2
	VUNPCKHPD  Y4, Y3, Y3        // rows 0,1 of coordinates 1 and 3
	VUNPCKLPD  Y6, Y5, Y4        // rows 2,3 of coordinates 0 and 2
	VUNPCKHPD  Y6, Y5, Y5        // rows 2,3 of coordinates 1 and 3
	VPERM2F128 $0x20, Y4, Y7, Y6 // coordinate 0
	VPERM2F128 $0x31, Y4, Y7, Y4 // coordinate 2
	VPERM2F128 $0x20, Y5, Y3, Y7 // coordinate 1
	VPERM2F128 $0x31, Y5, Y3, Y5 // coordinate 3
	QSTEP(Y6, X6)
	QSTEP(Y7, X7)
	QSTEP(Y4, X4)
	QSTEP(Y5, X5)
	VPACKSSDW X7, X6, X6
	VPACKSSDW X5, X4, X4
	VPACKSSWB X4, X6, X6
	VPSHUFB   codeTranspose<>(SB), X6, X6
	VMOVD     X6, (R12)(AX*1)
	VPEXTRD   $1, X6, (R13)(AX*1)
	VPEXTRD   $2, X6, (R14)(AX*1)
	VPEXTRD   $3, X6, (R15)(AX*1)
	ADDQ $4, AX
	CMPQ AX, BX
	JLT  quant_chunk

quant_tail:
	CMPQ AX, CX
	JGE  quant_done
	VMOVSD      (R8)(AX*8), X6
	VMOVHPD     (R9)(AX*8), X6, X6
	VMOVSD      (R10)(AX*8), X7
	VMOVHPD     (R11)(AX*8), X7, X7
	VINSERTF128 $1, X7, Y6, Y6
	QSTEP(Y6, X6)
	VPACKSSDW X6, X6, X6
	VPACKSSWB X6, X6, X6
	VPEXTRB   $0, X6, (R12)(AX*1)
	VPEXTRB   $1, X6, (R13)(AX*1)
	VPEXTRB   $2, X6, (R14)(AX*1)
	VPEXTRB   $3, X6, (R15)(AX*1)
	INCQ AX
	JMP  quant_tail

quant_done:
	MOVQ    sums+40(FP), DX
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VZEROUPPER
	RET

DATA absMask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $8

DATA maxFinite<>+0(SB)/8, $0x7fefffffffffffff // math.MaxFloat64
GLOBL maxFinite<>(SB), RODATA|NOPTR, $8

// func maxAbsAVX2(v *float64, n int) float64
//
// The largest finite |x| of the n ≥ 8 (a multiple of 8) values at v, 0 when
// there is none: |x| by clearing the sign bit, a non-finite |x| zeroed by
// its failed comparison with MaxFloat64 (NaN compares false), and two
// vectors of running maxima. Every candidate is +0 or positive, so the
// maximum is the same value in any lane order.
TEXT ·maxAbsAVX2(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSD absMask<>(SB), Y15
	VBROADCASTSD maxFinite<>(SB), Y14
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   AX, AX

max_chunk:
	VANDPD (SI)(AX*8), Y15, Y2
	VANDPD 32(SI)(AX*8), Y15, Y3
	VCMPPD $2, Y14, Y2, Y4 // |x| ≤ MaxFloat64
	VCMPPD $2, Y14, Y3, Y5
	VANDPD Y4, Y2, Y2
	VANDPD Y5, Y3, Y3
	VMAXPD Y2, Y0, Y0
	VMAXPD Y3, Y1, Y1
	ADDQ   $8, AX
	CMPQ   AX, CX
	JLT    max_chunk
	VMAXPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X1, X0, X0
	VMOVSD       X0, ret+16(FP)
	VZEROUPPER
	RET
