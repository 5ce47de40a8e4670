package quant

import (
	"math"
	"math/bits"

	"lemp/internal/vecmath"
)

// Integer kernels: the full r-dimension inner product of the query's codes
// with a row's codes, in the three shapes the verifier's candidate sets
// take — one row (DotQ8: ragged tails), eight rows anywhere in the
// sidecar (dot8: COORD/INCR survivor lists; eight row pointers by the
// time assembly sees them) and a contiguous panel (screenPanel: LENGTH's
// prefix, the whole-bucket fallback) — and a fourth for a panel's prefixes
// of up to four queries at once (screenBlockVNNI, behind Block.Run in
// block.go). The batched shapes also decide the screen, a row surviving
// when its dot is at least the call's integer cut (intCut in quant.go):
// dot8 returns the survivor mask beside the dots, the panel and block
// kernels write only the survivors' row numbers. On the AVX-512 VNNI tier
// the panel shape has a kernel of its own (screenPanelVNNI), which
// screenPanel runs for every prefix there.
//
// # Kernel contract
//
// Every kernel computes the exact integer Σ a[k]·b[k] as an int32. Codes lie
// in [-127, 127] and r ≤ MaxDim, so neither a lane nor the total can
// overflow, and integer addition is exact in any grouping: the AVX2
// assembly (kernels_amd64.s, taken when vecmath.AVX2 reports the CPU and
// operating system support it) and the portable Go below (every other
// GOARCH, CPUs without AVX2, -tags purego) compute the same integers with no
// accumulation order to agree on, and a signed integer comparison against
// the same cut keeps the same rows. The assembly multiplies 32-byte chunks
// (16-byte ones for r < 32) with VPSIGNB, VPMADDUBSW and VPMADDWD; its word
// pair sums are at most 2·127² = 32 258 < 2¹⁵, so VPMADDUBSW never
// saturates. No kernel loads a byte outside the r bytes of a row or of the
// query: the last chunk is the row's final chunk-width bytes, overlapping
// its predecessor, with a byte tail mask zeroing the query lanes already
// counted, so rows of r < minAsmDim never leave Go. The dispatchers keep the
// shape checks and every slice-to-pointer step in Go; the Go loops are the
// oracle.
//
// The VNNI kernels (kernels_amd64.s, "Block kernel" and "One-query
// kernel") hold the same contract on the AVX-512 VNNI tier (vecmath.VNNI).
// VPDPBUSD multiplies unsigned bytes with signed ones, so both flip each row
// code's sign bit, p + 128 in [1, 255], and multiply it into the signed
// query codes, two rows to a ZMM register; their lane sums are
// Σ (p+128)·q = d + 128·Σq, and the dispatchers move the cut by the same
// bias (biasCut, Σq being Screen.sum), so a row survives exactly when its
// dot, as dotGo computes it, is at least the cut. Every partial sum is at
// most 255·127·r < 2³¹ for r ≤ blockMaxDim, so nothing wraps; wider rows,
// and every host below the tier, take the kernels of the tier below (a
// block runs them one query at a time). The block kernel screens up to four
// queries, each with its own prefix length, the one-query kernel sixteen
// rows per group. Each masks the rows past its limits and reads a row's
// last r mod 32 bytes with a zeroing byte mask and a missing row of its
// last group as the panel's last row, so neither loads anything outside the
// panel. The block
// kernel's portable twin, screenBlockGo in the tests, is the oracle
// TestBlockMatchesOneQueryScreens and FuzzBlockKernel hold it to; the
// one-query kernel and its twin screenPanelVNNIGo, the biased arithmetic in
// Go, meet the plain loop in TestKernelsMatchPlainLoop and the portable
// screen in FuzzScreenKernels. TestBlockAtWidestRow and TestKernelsAtMaxDim
// run both at blockMaxDim.
//
// The quantizer's kernels hold the same contract in float64: they give the
// Go loops' bits, not merely sound bounds. quantize4AVX2 puts one
// row in each of four lanes, so every lane runs quantizeRow's loop — the
// same rounded operations, no fused multiply-add, its sums accumulated
// coordinate by coordinate in the same order — and returns the three sums
// per row; rowBounds, the square roots and the inflation, stays in Go for
// both paths. So the codes, the step and both panel maxima of a sidecar are
// the same bits on every host, and TestQuantizeRowsMatchesReference and
// FuzzQuantizeRows hold them to quantizeRowReference. quantizePanel keeps in
// Go a zero or subnormal step (whose reciprocal overflows), the last
// len(rows)/r mod 4 rows and rows of r < minAsmDim; maxAbs keeps the last
// len(v) mod 8 values. The quantizer reads no value past a panel's last row
// and writes no code past its last code.

// minAsmDim is the narrowest row the assembly takes: one 16-byte chunk.
const minAsmDim = 16

// Accelerated reports whether the kernels run in assembly for rows of
// dimension r on this host: the one test every dispatcher below makes, and
// the one a caller asks to learn whether the screen undercuts the exact row
// it guards (core screens by default exactly where this holds).
func Accelerated(r int) bool {
	return vecmath.AVX2() && minAsmDim <= r && r <= MaxDim
}

// blockMaxDim is the widest row the VNNI kernels take. They multiply the
// unsigned p + 128 (a code with its sign bit flipped, in [1, 255]) with the
// signed query code and subtract 128·Σq through the cut (biasCut), so every
// partial sum they form is at most 255·127·r in magnitude: below 2³¹ − 1 for
// r ≤ 2¹⁶, and no lane or total ever wraps. Wider rows take the AVX2
// kernels.
const blockMaxDim = 1 << 16

// vnniKernels reports whether rows of dimension r are screened by the AVX-512
// VNNI kernels: the one-query panel screen (screenPanelVNNI, behind
// screenPanel) and the four-query block kernel (behind Block.Run). It holds
// on the VNNI tier (vecmath.VNNI) for a row the assembly takes.
func vnniKernels(r int) bool {
	return vecmath.VNNI() && Accelerated(r) && r <= blockMaxDim
}

// biasCut is the cut a VNNI kernel compares Σ (p+128)·q = d + 128·Σq with,
// sum being Σq: a row's dot d is at least cut exactly when its biased sum is
// at least biasCut(cut, sum). Past the int32 range the clamp keeps or drops
// every row, as cut itself would: |Σ (p+128)·q| < 2³¹ − 1 (blockMaxDim).
func biasCut(cut, sum int32) int32 {
	return int32(min(max(int64(cut)+128*int64(sum), math.MinInt32), math.MaxInt32))
}

// DotQ8 returns the integer inner product of two int8 code vectors. The
// slices must have equal length ≤ MaxDim with values in [-127, 127], as
// QuantizeRows and QuantizeQuery produce; DotQ8 panics on unequal lengths.
// Its signature is kept for benchmark/kernels.go.
func DotQ8(a, b []int8) int32 {
	if len(a) != len(b) {
		panic("quant: DotQ8 on code vectors of unequal length")
	}
	if Accelerated(len(a)) {
		return dotAVX2(&a[0], &b[0], len(a))
	}
	return dotGo(a, b)
}

// dot8 computes out[j] = DotQ8(q, row rows[j] of codes) for eight rows of
// the row-major codes that need not be adjacent (nor distinct), r = len(q),
// and returns the survivor mask: bit j is set when out[j] ≥ cut. A row
// outside codes panics here, as slicing it would, so the assembly only ever
// reads whole rows.
func dot8(q, codes []int8, rows *[8]int, out *[8]int32, cut int32) uint8 {
	if !Accelerated(len(q)) {
		dot8Go(q, codes, rows, out)
		return mask8(out, cut)
	}
	n := uint(len(codes) / len(q))
	for _, i := range rows {
		if uint(i) >= n {
			panic("quant: dot8 row outside the codes")
		}
	}
	return dot8AVX2(&q[0], &codes[0], rows, len(q), out, cut)
}

// mask8 is the survivor mask of eight dots against cut: dot8's predicate in
// Go.
func mask8(dots *[8]int32, cut int32) uint8 {
	var mask uint8
	for j, d := range dots {
		if d >= cut {
			mask |= 1 << j
		}
	}
	return mask
}

// screenPanel writes to rows, in order, the numbers of the rows of panel
// (row-major, r = len(q)) whose dot with q is at least cut, and returns
// their count; sum is Σq (Screen.sum), by which the VNNI kernel moves the
// cut. rows must have one element per panel row; screenPanel panics
// otherwise. On the VNNI tier one kernel takes every row, sixteen at a
// time; the AVX2 kernel takes the rows in groups of eight, and the last
// len(rows) mod 8 go through the eight-pointer kernel with the final row
// repeated.
func screenPanel(q []int8, sum int32, panel []int8, cut int32, rows []int32) int {
	r, n := len(q), len(rows)
	if len(panel) != n*r {
		panic("quant: screenPanel panel size does not match len(rows) rows")
	}
	switch {
	case !Accelerated(r):
		return screenPanelGo(q, panel, cut, rows)
	case n == 0:
		return 0
	case vnniKernels(r):
		return screenPanelVNNI(&q[0], &panel[0], r, n, biasCut(cut, sum), &rows[0])
	}
	g, k := n&^7, 0
	if g > 0 {
		k = dotPanelAVX2(&q[0], &panel[0], r, g/8, cut, &rows[0])
	}
	if g < n {
		var r8 [8]int
		for j := range r8 {
			r8[j] = min(g+j, n-1)
		}
		var o8 [8]int32
		for mask := dot8(q, panel, &r8, &o8, cut) & (1<<(n-g) - 1); mask != 0; mask &= mask - 1 {
			rows[k] = int32(g + bits.TrailingZeros8(mask))
			k++
		}
	}
	return k
}

// dotGo is the portable one-row kernel: four independent accumulator
// chains, mirroring the float64 kernels in internal/vecmath.
func dotGo(a, b []int8) int32 {
	b = b[:len(a)] // bounds-check elimination hint
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += int32(a[i]) * int32(b[i])
		s1 += int32(a[i+1]) * int32(b[i+1])
		s2 += int32(a[i+2]) * int32(b[i+2])
		s3 += int32(a[i+3]) * int32(b[i+3])
	}
	var s int32
	for ; i < len(a); i++ {
		s += int32(a[i]) * int32(b[i])
	}
	return s + s0 + s1 + s2 + s3
}

// dot8Go is the portable eight-row kernel: one pass over the query, eight
// accumulator chains, two query elements per iteration (eight accumulators
// spill to the stack regardless, so unrolling the query axis halves the
// reload traffic per multiply-add).
func dot8Go(q, codes []int8, rows *[8]int, out *[8]int32) {
	row := func(i int) []int8 { return codes[i*len(q):][:len(q)] }
	p0, p1, p2, p3 := row(rows[0]), row(rows[1]), row(rows[2]), row(rows[3])
	p4, p5, p6, p7 := row(rows[4]), row(rows[5]), row(rows[6]), row(rows[7])
	var s0, s1, s2, s3, s4, s5, s6, s7 int32
	k := 0
	for ; k+2 <= len(q); k += 2 {
		qa, qb := int32(q[k]), int32(q[k+1])
		s0 += qa*int32(p0[k]) + qb*int32(p0[k+1])
		s1 += qa*int32(p1[k]) + qb*int32(p1[k+1])
		s2 += qa*int32(p2[k]) + qb*int32(p2[k+1])
		s3 += qa*int32(p3[k]) + qb*int32(p3[k+1])
		s4 += qa*int32(p4[k]) + qb*int32(p4[k+1])
		s5 += qa*int32(p5[k]) + qb*int32(p5[k+1])
		s6 += qa*int32(p6[k]) + qb*int32(p6[k+1])
		s7 += qa*int32(p7[k]) + qb*int32(p7[k+1])
	}
	if k < len(q) {
		qc := int32(q[k])
		s0 += qc * int32(p0[k])
		s1 += qc * int32(p1[k])
		s2 += qc * int32(p2[k])
		s3 += qc * int32(p3[k])
		s4 += qc * int32(p4[k])
		s5 += qc * int32(p5[k])
		s6 += qc * int32(p6[k])
		s7 += qc * int32(p7[k])
	}
	out[0], out[1], out[2], out[3] = s0, s1, s2, s3
	out[4], out[5], out[6], out[7] = s4, s5, s6, s7
}

// screenPanelGo is the portable screenPanel: dot8Go and mask8 over groups
// of eight adjacent rows, dotGo over the rest.
func screenPanelGo(q, panel []int8, cut int32, rows []int32) int {
	r, k, i := len(q), 0, 0
	var d8 [8]int32
	for ; i+8 <= len(rows); i += 8 {
		dot8Go(q, panel, &[8]int{i, i + 1, i + 2, i + 3, i + 4, i + 5, i + 6, i + 7}, &d8)
		for mask := mask8(&d8, cut); mask != 0; mask &= mask - 1 {
			rows[k] = int32(i + bits.TrailingZeros8(mask))
			k++
		}
	}
	for ; i < len(rows); i++ {
		if dotGo(q, panel[i*r:(i+1)*r]) >= cut {
			rows[k] = int32(i)
			k++
		}
	}
	return k
}
