package quant

import "lemp/internal/vecmath"

// Integer kernels: the full r-dimension inner product of the query's codes
// with a row's codes, in the three shapes the verifier's candidate sets
// take — one row (DotQ8: ragged tails), eight rows anywhere in the
// sidecar (dot8: COORD/INCR survivor lists; eight row pointers by the
// time assembly sees them) and a contiguous panel (dotPanel: LENGTH's
// prefix, the whole-bucket fallback).
//
// # Kernel contract
//
// Every kernel returns the exact integer Σ a[k]·b[k] as an int32. Codes lie
// in [-127, 127] and r ≤ MaxDim, so neither a lane nor the total can
// overflow, and integer addition is exact in any grouping: the AVX2
// assembly (kernels_amd64.s, taken when vecmath.AVX2 reports the CPU and
// operating system support it) and the portable Go below (every other
// GOARCH, CPUs without AVX2, -tags purego) return the same integers with no
// accumulation order to agree on. No kernel loads a byte outside the r
// bytes of a row or of the query: assembly consumes 16-byte chunks, the last
// one overlapping its predecessor instead of running past the end, so rows
// of r < minAsmDim never leave Go. The dispatchers keep the shape checks
// and every slice-to-pointer step in Go.

// minAsmDim is the narrowest row the assembly takes: one 16-byte chunk.
const minAsmDim = 16

// Accelerated reports whether the kernels run in assembly for rows of
// dimension r on this host: the one test every dispatcher below makes, and
// the one a caller asks to learn whether the screen undercuts the exact row
// it guards (core screens by default exactly where this holds).
func Accelerated(r int) bool {
	return vecmath.AVX2() && minAsmDim <= r && r <= MaxDim
}

// DotQ8 returns the integer inner product of two int8 code vectors. The
// slices must have equal length ≤ MaxDim with values in [-127, 127], as
// QuantizeRows and QuantizeQuery produce; DotQ8 panics on unequal lengths.
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
// the row-major codes that need not be adjacent (nor distinct), r = len(q).
// A row outside codes panics, as slicing it would.
func dot8(q, codes []int8, rows *[8]int, out *[8]int32) {
	r := len(q)
	if !Accelerated(r) {
		dot8Go(q, codes, rows, out)
		return
	}
	row := func(i int) *int8 { return &codes[i*r : i*r+r][0] }
	dot8AVX2(&q[0], row(rows[0]), row(rows[1]), row(rows[2]), row(rows[3]),
		row(rows[4]), row(rows[5]), row(rows[6]), row(rows[7]), r, out)
}

// dotPanel computes out[i] = DotQ8(q, panel[i*r:(i+1)*r]) for r = len(q).
// The panel must hold exactly len(out) rows; dotPanel panics otherwise.
func dotPanel(q, panel []int8, out []int32) {
	r := len(q)
	if len(panel) != len(out)*r {
		panic("quant: dotPanel panel size does not match len(out) rows")
	}
	if !Accelerated(r) {
		dotPanelGo(q, panel, out)
		return
	}
	if len(out) > 0 {
		dotPanelAVX2(&q[0], &panel[0], r, len(out), &out[0])
	}
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

// dotPanelGo is the portable panel kernel: dot8Go over groups of eight
// adjacent rows, dotGo over the rest.
func dotPanelGo(q, panel []int8, out []int32) {
	r := len(q)
	i := 0
	for ; i+8 <= len(out); i += 8 {
		dot8Go(q, panel, &[8]int{i, i + 1, i + 2, i + 3, i + 4, i + 5, i + 6, i + 7}, (*[8]int32)(out[i:i+8]))
	}
	for ; i < len(out); i++ {
		out[i] = dotGo(q, panel[i*r:(i+1)*r])
	}
}
