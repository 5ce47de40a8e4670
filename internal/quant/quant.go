// Package quant implements the int8 sidecar used to screen verification
// candidates before the exact f64 kernels run. Exact verification is
// memory-bandwidth-bound: every candidate that survives bucket pruning
// streams its full float64 row through the cache even when its product ends
// far below the threshold. A symmetric int8 quantization at one step per
// panel (scale = the panel's maxabs/127) shrinks a row 8×; a cheap int8 dot
// against the quantized query, widened by a provably conservative error
// bound, rules most losers out while touching only the codes — survivors
// fall through to the exact kernels, so exact results never change.
//
// # The bound
//
// Write the query as q = q̂ + e_q and a row as p = p̂ + e_p, where
// q̂ = qscale·qcodes and p̂ = scale·codes are the dequantized vectors and
// e_q, e_p the quantization residuals. Then
//
//	qᵀp − q̂ᵀp̂ = q̂ᵀe_p + e_qᵀp̂ + e_qᵀe_p,
//
// so by Cauchy–Schwarz
//
//	|qᵀp − q̂ᵀp̂| ≤ ‖q̂‖·‖e_p‖ + ‖e_q‖·(‖p̂‖ + ‖e_p‖).
//
// q̂ᵀp̂ is exact (an integer dot times two scales; the integer fits float64
// for every supported dimension). Quantization computes inflated upper
// bounds on ‖e_p‖ and ‖p̂‖ per row from the stored codes and keeps only
// their panel-wide maxima; the bracket is widened by float-rounding
// allowances: the stored norms and residuals are inflated upper bounds of
// the true values, a term of order r·2⁻⁵³·‖q‖·‖p‖ covers the accumulation
// rounding of the exact float64 Dot the bound must bracket (the screening
// contract is against what vecmath.Dot computes, not against the
// mathematical product), and the bound's own arithmetic is inflated once
// more. The contract, which quant_test.go property-checks over adversarial
// inputs through a per-row bracket that recomputes the row's residual and
// norm:
//
//	approx − bound ≤ Dot(q, row_i) ≤ approx + bound
//
// for all finite inputs; a non-finite input or an overflowing quantity
// makes the bound +Inf, which no screening predicate of the form "upper
// bound below cutoff" can ever discard.
//
// # The screen
//
// The verifier's predicate needs only the upper edge, for many rows of one
// panel against one query, so Screen hoists everything that does not depend
// on the row: with d the exact integer dot of the two code vectors,
//
//	ub = S_q·S_p·d + resid,   discard iff ub < cut,
//
// where resid puts the panel-wide maxima of ‖e_p‖ and ‖p‖ᵘᵇ in place of the
// per-row values (sound, and the reason the sidecar stores no per-row
// bound) and carries every rounding allowance as screenSlack·‖q‖ᵘᵇ·‖p‖ᵘᵇ.
// With one scale per panel, ub is increasing in d alone, so each call
// (one per query and panel) turns its cut into one int32 D (intCut): every
// d < D has S_q·S_p·d + resid < cut in exact arithmetic, and the kernels
// keep a row iff d ≥ D — one integer comparison per row, no per-row scale
// read and no float pass. A NaN or ±Inf operand (a panel holding a
// non-finite row has an infinite resid) keeps every row. The dot runs the
// full r dimensions: on vectors without spectral decay a prefix of them
// bounds almost nothing.
//
// One step per panel screens about as well as a step per row would: the
// bound charges every row the panel's largest residual either way, and with
// a step per row that residual would still come, up to rounding, from the
// widest row, whose step is the panel's.
//
// # Error model for fl(qᵀp)
//
// In core a panel is a bucket's raw probe rows and the query its raw row,
// so ub must not undercut the value the verifier emits as it is,
// v = fl(qᵀp) in vecmath's canonical order (internal/naive's bits). As in
// SpAMM's norm-product analysis (Fast Multiplication of Matrices with
// Decay), every error is charged against ‖q‖·‖p‖, never against the
// product, so cancellation costs nothing. With u = 2⁻⁵³: quantization is
// the bound above; the exact kernel adds |v − qᵀp| ≤ r·u·‖q‖·‖p‖ in any
// order (underflow adds r·2⁻¹⁰⁷⁵, which tiny dominates); NewScreen's
// folding of S_q and resid is a handful of roundings of quantities at most
// ‖q‖ᵘᵇ·‖p‖ᵘᵇ, and the integer cut is exact against the folded constants.
// screenSlack(r) = 4(r+8)u + 32u covers those roundings several times
// over, so ub ≥ v, and d < D implies v < cut: an entry equal to θ, or to a
// Row-Top-k heap's floor (which takes an equal value on a smaller id), is
// never discarded. The panel maxima charge every row the longest row's
// residual, which is only looser for a bucket's shorter rows.
//
// Where the kernels are assembly (Accelerated) the comparison runs there
// too, eight rows at a time (VPCMPGTD against the broadcast cut), inside
// the panel kernel, which writes only survivors; mask8 and screenPanelGo
// are its portable twins and its oracle.
package quant

import (
	"math"
	"math/bits"

	"lemp/internal/vecmath"
)

// MaxDim is the largest row dimension the sidecar supports: DotQ8
// accumulates int8 products in an int32, and 127²·2¹⁷ is the largest
// power-of-two multiple of the maximal product still below 2³¹. Callers
// must not quantize wider rows (core simply disables screening there).
const MaxDim = 1 << 17

// ulp is the double-precision unit roundoff 2⁻⁵³.
const ulp = 1.0 / (1 << 53)

// tiny is an absolute slack folded into every inflated bound, dominating
// the absolute error of underflowed arithmetic. The worst case is a norm:
// every squared term of a sum can underflow to zero (true value just below
// the subnormal step 2⁻¹⁰⁷⁴), and the square root turns that absolute sum
// error of r·2⁻¹⁰⁷⁴ into an absolute norm error of √(r·2⁻¹⁰⁷⁴) ≤ 10⁻¹⁵⁸
// for r ≤ MaxDim. 10⁻¹⁵⁰ dominates it with margin while staying
// astronomically below any dot product a screening threshold could target.
const tiny = 1e-150

// Rows is the int8 sidecar of one contiguous row-panel (in core: one
// bucket's raw rows): one quantization step for the whole panel, r code
// bytes per row, and two panel-wide bound inputs.
type Rows struct {
	r int
	n int

	// Scale is the panel's quantization step, maxabs/127 over every finite
	// coordinate of the panel (0 for a zero panel). Codes holds the int8
	// payload, row-major (n × r), every value in [-127, 127].
	Scale float64
	Codes []int8

	// maxResid and maxNormUB are the largest inflated bounds on a row's
	// quantization residual ‖e_p‖ and on ‖p̂‖+‖e_p‖ across the panel,
	// computed from the stored codes: the screen charges every row these
	// (see the package comment). A non-finite row makes maxResid +Inf, which
	// switches the screen off for the whole panel.
	maxResid  float64
	maxNormUB float64
}

// R returns the row dimension.
func (qr *Rows) R() int { return qr.r }

// N returns the number of rows.
func (qr *Rows) N() int { return qr.n }

// Row returns the int8 codes of row i. Its signature is kept for
// benchmark/kernels.go.
func (qr *Rows) Row(i int) []int8 {
	return qr.Codes[i*qr.r : (i+1)*qr.r : (i+1)*qr.r]
}

// Bytes returns the sidecar's memory footprint: the codes plus the panel's
// one scale.
func (qr *Rows) Bytes() int {
	if qr == nil {
		return 0
	}
	return len(qr.Codes) + 8
}

// sumSlack bounds the relative error of a float64 sum of r nonnegative
// products followed by a square root, with a wide safety margin.
func sumSlack(r int) float64 { return 4 * float64(r+8) * ulp }

// dotSlack bounds |Dot(q,p) − qᵀp| relative to ‖q‖·‖p‖. The bound holds
// for any summation order: r rounded products added in whatever grouping
// err by at most γ_r·Σ|q_i p_i| with γ_r ≈ r·2⁻⁵³ — sequential order is the
// worst case, lanes and trees only shorten the chains — and Σ|q_i p_i| ≤
// ‖q‖·‖p‖. So it covers vecmath's canonical four-lane order (stated in
// vecmath/kernels.go), assembly or portable, with the factor 4 to spare.
func dotSlack(r int) float64 { return 4 * float64(r+8) * ulp }

// inflate widens a computed upper bound so that its own floating-point
// rounding cannot make it undershoot: rel must dominate the relative error
// of the computation that produced x.
func inflate(x, rel float64) float64 { return x + x*rel + tiny }

// roundHalfEven is math.RoundToEven for |y| < 2⁵¹, without a call: y +
// 1.5·2⁵² lies in (2⁵², 2⁵³), where the spacing of float64 is 1, so the
// addition rounds y to an integer, ties to even (the constant is even), and
// the subtraction is exact. A quantization quotient is at most about 127.
// Above 2⁵¹ the result is still of y's sign and at least 2⁵⁰ in magnitude,
// so the clamp to ±127 that follows gives the same code; ±Inf and NaN pass
// through. The one difference, −0 for RoundToEven against +0 here on
// y ∈ (−0.5, −0], vanishes in a code and in every square it feeds.
func roundHalfEven(y float64) float64 {
	const shift = 0x1.8p52
	return (y + shift) - shift
}

// clampCode limits a rounded quotient to the int8 code range [-127, 127].
// It is min(max(c, -127), 127) for every c but NaN, which it passes through
// as the builtins do; comparisons instead of the builtins keep the common
// case to two untaken branches, and a NaN code is cleared anyway.
func clampCode(c float64) float64 {
	if c > 127 {
		return 127
	}
	if c < -127 {
		return -127
	}
	return c
}

// maxAbs returns the largest finite |x| of v (0 when there is none). Where
// the kernels are assembly, all but the last len(v) mod 8 values go through
// maxAbsAVX2; a maximum is the same value in any order, so a panel's is the
// largest of its rows'.
func maxAbs(v []float64) float64 {
	m := 0.0
	if n := len(v) &^ 7; n > 0 && vecmath.AVX2() {
		m = maxAbsAVX2(&v[0], n)
		v = v[n:]
	}
	for _, x := range v {
		if a := math.Abs(x); a > m && a <= math.MaxFloat64 {
			m = a
		}
	}
	return m
}

// QuantizeRows builds the sidecar of a contiguous row-major panel holding
// len(rows)/r rows of dimension r, all at the panel's one step. r must be in
// [1, MaxDim] and divide len(rows); QuantizeRows panics otherwise (a
// programming error). Zero rows quantize to zero codes; rows holding NaN or
// ±Inf get an infinite residual bound, so the panel always survives
// screening and reaches the exact path. Its signature is kept for
// benchmark/kernels.go.
func QuantizeRows(rows []float64, r int) *Rows {
	return QuantizeRowsMax(rows, r, maxAbs(rows))
}

// QuantizeRowsMax is QuantizeRows given the panel's largest finite |x|,
// maxAbs, which a caller that has already read every row (core's length
// pass) knows as the largest of the rows': it reads the rows once, for the
// codes, and its sidecar is QuantizeRows' bit for bit.
func QuantizeRowsMax(rows []float64, r int, maxAbs float64) *Rows {
	if r < 1 || r > MaxDim {
		panic("quant: QuantizeRows dimension out of [1, MaxDim]")
	}
	if len(rows)%r != 0 {
		panic("quant: QuantizeRows panel size not a multiple of the dimension")
	}
	n := len(rows) / r
	qr := &Rows{r: r, n: n, Scale: maxAbs / 127, Codes: make([]int8, n*r)}
	qr.maxResid, qr.maxNormUB = quantizePanel(qr.Codes, rows, r, qr.Scale)
	return qr
}

// quantizePanel fills codes with the quantization of the len(rows)/r rows
// of rows at step scale and returns the panel maxima of the rows' residual
// bounds and of their norm-plus-residual bounds. Where the kernels are
// assembly for r and 1/scale is finite, the rows go four at a time through
// quantize4AVX2, which runs quantizeRow's loop with its bits, and rowBounds
// finishes each; the last len(rows)/r mod 4 rows, a zero or subnormal step
// and every other host take quantizeRow.
func quantizePanel(codes []int8, rows []float64, r int, scale float64) (maxResid, maxNormUB float64) {
	n, i := len(rows)/r, 0
	if inv := 1 / scale; Accelerated(r) && scale != 0 && !math.IsInf(inv, 0) {
		codes = codes[:n*r] // the assembly writes every row's codes
		var sums [12]float64
		for ; i+4 <= n; i += 4 {
			quantize4AVX2(&rows[i*r], &codes[i*r], r, scale, inv, &sums)
			for k := range 4 {
				resid, norm := rowBounds(codes[(i+k)*r:(i+k+1)*r], sums[k], sums[4+k], sums[8+k])
				maxResid, maxNormUB = max(maxResid, resid), max(maxNormUB, norm+resid)
			}
		}
	}
	for ; i < n; i++ {
		resid, norm := quantizeRow(codes[i*r:(i+1)*r], rows[i*r:(i+1)*r], scale)
		maxResid, maxNormUB = max(maxResid, resid), max(maxNormUB, norm+resid)
	}
	return maxResid, maxNormUB
}

// quantizeRow fills codes with the symmetric int8 quantization of row at
// step scale (at least the row's maxabs/127) and returns upper bounds on the
// residual norm and on the dequantized norm. A row holding NaN or ±Inf, or a
// nonzero coordinate under a step of 0 (maxabs/127 underflowed), gets zero
// codes and an infinite residual.
func quantizeRow(codes []int8, row []float64, scale float64) (resid, norm float64) {
	if scale == 0 {
		clear(codes)
		for _, x := range row {
			if x != 0 { // NaN included
				return math.Inf(1), 0
			}
		}
		return 0, 0
	}
	// Quantize by reciprocal multiply: a division per coordinate costs
	// several times a multiply and this loop runs per query on the serving
	// path. The code choice itself carries no soundness weight — the
	// residual bound below is computed from the codes actually stored, so
	// any rounding of the quotient only moves error between the code and
	// the (exactly accounted) residual. The reciprocal overflows only for
	// subnormal scales; fall back to division there.
	//
	// The loops call nothing, so their accumulators stay in registers:
	// rounding is roundHalfEven's addition, and the finiteness check is
	// folded in as a sum of x−x, which is 0 for a finite x and NaN for NaN
	// or ±Inf. The float64 conversions keep every product rounded on its own
	// (no fused multiply-add into the rounding constant or a sum), as
	// quantize4AVX2 rounds them.
	inv := 1 / scale
	var sumd, sumq, nonFinite float64
	if math.IsInf(inv, 0) {
		for j, x := range row {
			c := clampCode(roundHalfEven(float64(x / scale)))
			codes[j] = int8(c)
			deq := float64(scale * c)
			d := x - deq
			sumd += float64(d * d)
			sumq += float64(deq * deq)
			nonFinite += x - x
		}
	} else {
		for j, x := range row {
			// The quotient can round a full-scale coordinate past ±127
			// (|x| == maxabs gives exactly ±127 only when it is exact);
			// clamp so the code always fits the int8 contract.
			c := clampCode(roundHalfEven(float64(x * inv)))
			codes[j] = int8(c)
			deq := float64(scale * c)
			d := x - deq
			sumd += float64(d * d)
			sumq += float64(deq * deq)
			nonFinite += x - x
		}
	}
	return rowBounds(codes, sumd, sumq, nonFinite)
}

// rowBounds turns the sums of a quantized row — of (x − deq)², of deq² and
// of x − x over its coordinates — into quantizeRow's residual and norm
// bounds, clearing the row's codes where it holds NaN or ±Inf (nonFinite is
// then NaN) or a bound comes out NaN or its norm infinite.
func rowBounds(codes []int8, sumd, sumq, nonFinite float64) (resid, norm float64) {
	if nonFinite != 0 {
		clear(codes)
		return math.Inf(1), 0
	}
	slack := sumSlack(len(codes))
	norm = inflate(math.Sqrt(sumq), slack)
	// ‖e_p‖ in exact arithmetic differs from the computed ‖d‖ by at most
	// the rounding of scale·c and of the subtraction, each ≤ 2⁻⁵³ relative
	// to the dequantized coordinate — covered by the 4·2⁻⁵²·‖p̂‖ term.
	resid = inflate(math.Sqrt(sumd)+4*(2*ulp)*norm, slack)
	if math.IsNaN(resid) || math.IsNaN(norm) || math.IsInf(norm, 0) {
		clear(codes)
		return math.Inf(1), 0
	}
	return resid, norm
}

// Query is a quantized query vector: the same per-vector symmetric scheme,
// with the codes kept in a caller-owned buffer so steady-state retrieval
// quantizes queries without allocating.
type Query struct {
	Scale float64
	Codes []int8
	Resid float64 // upper bound on ‖q − Scale·Codes‖
	Norm  float64 // upper bound on ‖Scale·Codes‖

	sum int32 // Σ Codes, the block kernel's bias correction (block.go)
}

// QuantizeQuery quantizes q into the caller's dst buffer (len(dst) must be
// len(q); QuantizeQuery panics otherwise) at its own step, maxabs/127. ok is
// false when q holds a non-finite value or its magnitude defeats
// quantization — callers must then skip screening entirely and verify every
// candidate exactly. Its signature is kept for benchmark/kernels.go.
func QuantizeQuery(dst []int8, q []float64) (qq Query, ok bool) {
	if len(dst) != len(q) {
		panic("quant: QuantizeQuery buffer size does not match the query dimension")
	}
	if len(q) == 0 || len(q) > MaxDim {
		return Query{}, false
	}
	scale := maxAbs(q) / 127
	resid, norm := quantizeRow(dst, q, scale)
	if math.IsInf(resid, 0) {
		return Query{}, false
	}
	var sum int32
	for _, c := range dst {
		sum += int32(c)
	}
	return Query{Scale: scale, Codes: dst, Resid: resid, Norm: norm, sum: sum}, true
}

// screenSlack is the relative allowance backing the screen's naked
// arithmetic: it must dominate, relative to ‖q‖·‖p‖, the exact kernel's
// accumulation rounding (as dotSlack does) and the handful of roundings of
// NewScreen's folding — each at most one ulp of a norm-dominated quantity
// (the package comment's error model). The headroom over dotSlack is 32 ulp.
func screenSlack(r int) float64 { return dotSlack(r) + 32*ulp }

// Screen is the per-(query, panel) state of the screening predicate: the
// query's codes and the two constants the row-independent part of the bound
// folds into. Build one per screening pass with NewScreen; it lives on the
// caller's stack.
type Screen struct {
	qr    *Rows
	codes []int8  // query codes
	sum   int32   // Σ codes
	qs    float64 // emit·(query scale)
	resid float64 // emit·(qn·maxResid + (qresid + screenSlack·qUB)·maxNormUB) + tiny
}

// NewScreen hoists the query-side constants of the screen, pre-multiplied
// by emit, so the predicate bounds emit·Dot. Retrieval passes 1: the panel
// holds raw rows, and the value it screens is the bare dot fl(qᵀp). emit
// must be nonnegative — a negative or non-finite factor keeps every row. qq
// must be a quantization of an r-dimensional query; NewScreen panics
// otherwise. Its signature is kept for benchmark/kernels.go.
func (qr *Rows) NewScreen(qq Query, emit float64) Screen {
	if len(qq.Codes) != qr.r {
		panic("quant: NewScreen on a query of the wrong dimension")
	}
	qUB := qq.Norm + qq.Resid
	qfac := qq.Resid + screenSlack(qr.r)*qUB
	return Screen{
		qr:    qr,
		codes: qq.Codes,
		sum:   qq.sum,
		qs:    emit * qq.Scale,
		resid: emit*(qq.Norm*qr.maxResid+qfac*qr.maxNormUB) + tiny,
	}
}

// keepAll and dropAll are the integer cuts that keep and that discard every
// row: no dot lies below MinInt32, and every dot lies below MaxInt32
// (|d| ≤ 127²·MaxDim < 2³¹−1).
const keepAll, dropAll = math.MinInt32, math.MaxInt32

// intCut turns the screen's predicate ub < cut, ub = qs·sp·d + resid, into
// one integer comparison: it returns an int32 D such that every integer
// d < D has qs·sp·d + resid < cut in exact arithmetic, so a row whose dot
// is below D can be discarded. With t = (cut − resid)/(qs·sp) the best such
// D is ⌈t⌉, clamped to the int32 range; intCut returns it exactly where t is
// an integer and at most one below it elsewhere. A NaN or ±Inf operand, or
// a negative scale, keeps every row; qs·sp = 0 makes the bound resid, which
// discards every row or none.
//
// fl(cut − resid), fl(qs·sp) and their quotient round once each, 3 ulp of t
// in all (rescaledQuotient where the first two leave the normal range), and
// t is lowered by 16 ulp before ⌈·⌉, which only ever loses a discard.
// |t| ≥ 2³³ and |t| < ½ are decided by the sign of cut − resid alone: the
// first clamps, and the second lies in (−1, 1), where ⌈t⌉ is 1 or 0.
func intCut(qs, sp, resid, cut float64) int32 {
	if !(qs >= 0 && sp >= 0) || qs-qs != 0 || sp-sp != 0 || resid-resid != 0 || cut-cut != 0 {
		return keepAll
	}
	if qs == 0 || sp == 0 {
		if resid < cut {
			return dropAll
		}
		return keepAll
	}
	num, a := cut-resid, qs*sp
	if num == 0 {
		return 0
	}
	t := num / a
	if a < 0x1p-1022 || math.IsInf(a, 0) || math.IsInf(num, 0) {
		t = rescaledQuotient(cut, resid, qs, sp)
	}
	switch abs := math.Abs(t); {
	case !(abs < 0x1p33):
		if num > 0 {
			return dropAll
		}
		return keepAll
	case abs < 0.5:
		if num > 0 {
			return 1
		}
		return 0
	}
	t -= math.Abs(t) * 0x1p-49
	return int32(min(max(math.Ceil(t), keepAll), dropAll))
}

// rescaledQuotient is (cut − resid)/(qs·sp) for operands where fl(cut −
// resid) overflows or fl(qs·sp) is subnormal or infinite: it divides the
// mantissas (math.Frexp) and scales by the exponents, so nothing over- or
// underflows, with the same three roundings. The exponent is clamped to
// ±40, which keeps a quotient past 2³³ past it and one under ½ under it.
func rescaledQuotient(cut, resid, qs, sp float64) float64 {
	num, k := cut-resid, 0
	if math.IsInf(num, 0) {
		// Both operands are then at least 2⁹⁷⁰ in magnitude: halving is exact.
		num, k = cut/2-resid/2, 1
	}
	fn, en := math.Frexp(num)
	fq, eq := math.Frexp(qs)
	fs, es := math.Frexp(sp)
	return math.Ldexp(fn/(fq*fs), min(max(en+k-eq-es, -40), 40))
}

// intCut is the function intCut over this screen's constants and cut.
func (s *Screen) intCut(cut float64) int32 { return intCut(s.qs, s.qr.Scale, s.resid, cut) }

// Screen8 screens eight rows anywhere in the panel: dots[j] receives row
// ij's integer dot and bit j of the result is set when row ij survives
// against cut. lens is not read — a raw row carries its length in its
// codes. Its signature, lens and dots included, is kept for
// benchmark/kernels.go, which times it.
func (s *Screen) Screen8(i0, i1, i2, i3, i4, i5, i6, i7 int, lens *[8]float64, cut float64, dots *[8]int32) uint8 {
	return dot8(s.codes, s.qr.Codes, &[8]int{i0, i1, i2, i3, i4, i5, i6, i7}, dots, s.intCut(cut))
}

// Prefix screens the panel's first n rows in one panel-kernel pass and
// writes the survivors' row numbers to rows in order. It returns the
// survivor count. rows must hold n elements.
func (s *Screen) Prefix(n int, cut float64, rows []int32) int {
	return screenPanel(s.codes, s.qr.Codes[:n*s.qr.r], s.intCut(cut), rows[:n])
}

// List screens the rows listed in rows (any order, repeats allowed):
// survivors are compacted to the front of rows in order. Every block of
// eight goes through the eight-row kernel; a ragged tail is padded to eight
// by repeating its last row, and the padding's bits are masked off, as
// screenPanel does. It returns the survivor count.
func (s *Screen) List(rows []int32, cut float64) int {
	d := s.intCut(cut)
	k := 0
	var r8 [8]int
	var d8 [8]int32
	for i := 0; i < len(rows); i += 8 {
		m := min(8, len(rows)-i)
		for j := range r8 {
			r8[j] = int(rows[i+min(j, m-1)])
		}
		// The block is copied out and k never passes it, so the writes below
		// reach no unread entry of rows.
		for mask := dot8(s.codes, s.qr.Codes, &r8, &d8, d) & (1<<m - 1); mask != 0; mask &= mask - 1 {
			rows[k] = int32(r8[bits.TrailingZeros8(mask)])
			k++
		}
	}
	return k
}
