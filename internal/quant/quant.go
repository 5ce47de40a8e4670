// Package quant implements the int8 sidecar used to screen verification
// candidates before the exact f64 kernels run. Exact verification is
// memory-bandwidth-bound: every candidate that survives bucket pruning
// streams its full float64 row through the cache even when its product ends
// far below the threshold. A per-row symmetric int8 quantization (scale =
// maxabs/127) shrinks a row 8×; a cheap int8 dot against the quantized
// query, widened by a provably conservative error bound, rules most losers
// out while touching only the sidecar — survivors fall through to the exact
// kernels, so exact results never change.
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
// bounds on ‖e_p‖ and ‖p̂‖ per row and keeps only their panel-wide maxima;
// the bracket is widened by three float-rounding allowances: the stored
// norms and residuals are inflated upper bounds of the true values, a term
// of order r·2⁻⁵³·‖q‖·‖p‖ covers the accumulation rounding of the exact
// float64 Dot the bound must bracket (the screening contract is against
// what vecmath.Dot computes, not against the mathematical product), and the
// bound's own arithmetic is inflated once more. The contract, which
// quant_test.go property-checks over adversarial inputs through a per-row
// bracket that recomputes the row's residual and norm:
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
//	ub = S_q·S_p[i]·d + resid,   keep iff !(ub ≥ −MaxFloat64 && ub < cut)
//
// where resid puts the panel-wide maxima of ‖e_p‖ and ‖p‖ᵘᵇ in place of the
// per-row values (sound, and the reason the sidecar stores no per-row
// bound) and carries every rounding allowance as screenSlack·‖q‖ᵘᵇ·‖p‖ᵘᵇ. A
// panel holding a non-finite row has an infinite resid. The dot runs the
// full r dimensions: on vectors without spectral decay a prefix of them
// bounds almost nothing.
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
// order (underflow adds r·2⁻¹⁰⁷⁵, which tiny dominates); the predicate's
// product and add and NewScreen's folding of resid are a handful of
// roundings of quantities at most ‖q‖ᵘᵇ·‖p‖ᵘᵇ. screenSlack(r) = 4(r+8)u +
// 32u covers the last three about three times over, so ub ≥ v, and
// ub < cut implies v < cut: an entry equal to θ, or to a Row-Top-k heap's
// floor (which takes an equal value on a smaller id), is never discarded.
// The panel maxima charge every row the longest row's residual, which is
// only looser for a bucket's shorter rows.
//
// Where the kernels are assembly (Accelerated) the predicate runs there
// too, eight rows at a time (VCVTDQ2PD, then the same multiplies, add and
// two ordered comparisons in the same order, no FMA), and only survivors
// are written; survives, mask8 and siftPrefix are its portable twins and
// its oracle.
package quant

import (
	"math"
	"math/bits"
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
// bucket's raw rows): per row a scale and the quantized codes,
// r + 8 bytes per row, and two panel-wide bound inputs.
type Rows struct {
	r int
	n int

	// Scales[i] is row i's quantization step (maxabs/127; 0 for a zero
	// row). Codes holds the int8 payload, row-major (n × r), every value
	// in [-127, 127].
	Scales []float64
	Codes  []int8

	// maxResid and maxNormUB are the largest inflated bounds on a row's
	// quantization residual ‖e_p‖ and on ‖p̂‖+‖e_p‖ across the panel: the
	// screen substitutes them for the per-row values (see the package
	// comment). A non-finite row makes maxResid +Inf, which switches the
	// screen off for the whole panel.
	maxResid  float64
	maxNormUB float64
}

// R returns the row dimension.
func (qr *Rows) R() int { return qr.r }

// N returns the number of rows.
func (qr *Rows) N() int { return qr.n }

// Row returns the int8 codes of row i.
func (qr *Rows) Row(i int) []int8 {
	return qr.Codes[i*qr.r : (i+1)*qr.r : (i+1)*qr.r]
}

// Bytes returns the sidecar's memory footprint: codes plus the per-row
// scales.
func (qr *Rows) Bytes() int {
	if qr == nil {
		return 0
	}
	return len(qr.Codes) + 8*len(qr.Scales)
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

// QuantizeRows builds the sidecar of a contiguous row-major panel holding
// len(rows)/r rows of dimension r. r must be in [1, MaxDim] and divide
// len(rows); QuantizeRows panics otherwise (a programming error). Zero rows
// quantize to scale 0 with zero residual; rows holding NaN or ±Inf get an
// infinite residual bound, so they always survive screening and reach the
// exact path.
func QuantizeRows(rows []float64, r int) *Rows {
	if r < 1 || r > MaxDim {
		panic("quant: QuantizeRows dimension out of [1, MaxDim]")
	}
	if len(rows)%r != 0 {
		panic("quant: QuantizeRows panel size not a multiple of the dimension")
	}
	n := len(rows) / r
	qr := &Rows{
		r:      r,
		n:      n,
		Scales: make([]float64, n),
		Codes:  make([]int8, n*r),
	}
	for i := 0; i < n; i++ {
		var resid, norm float64
		qr.Scales[i], resid, norm = quantizeRow(qr.Codes[i*r:(i+1)*r], rows[i*r:(i+1)*r])
		qr.maxResid = max(qr.maxResid, resid)
		qr.maxNormUB = max(qr.maxNormUB, norm+resid)
	}
	return qr
}

// quantizeRow fills codes with the symmetric int8 quantization of row and
// returns (scale, residual-norm upper bound, dequantized-norm upper bound).
func quantizeRow(codes []int8, row []float64) (scale, resid, norm float64) {
	maxabs := 0.0
	for _, x := range row {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			// Non-finite row: no usable quantization. Zero codes, infinite
			// residual — the bound is +Inf and the row is never screened.
			for j := range codes {
				codes[j] = 0
			}
			return 0, math.Inf(1), 0
		}
		if a := math.Abs(x); a > maxabs {
			maxabs = a
		}
	}
	if maxabs == 0 {
		for j := range codes {
			codes[j] = 0
		}
		return 0, 0, 0
	}
	scale = maxabs / 127
	if math.IsInf(scale, 0) || scale == 0 {
		// maxabs/127 overflowed or underflowed to a degenerate step (maxabs
		// near the float64 extremes); treat like a non-finite row.
		for j := range codes {
			codes[j] = 0
		}
		return 0, math.Inf(1), 0
	}
	// Quantize by reciprocal multiply: a division per coordinate costs
	// several times a multiply and this loop runs per query on the serving
	// path. The code choice itself carries no soundness weight — the
	// residual bound below is computed from the codes actually stored, so
	// any rounding of the quotient only moves error between the code and
	// the (exactly accounted) residual. The reciprocal overflows only for
	// subnormal scales; fall back to division there.
	inv := 1 / scale
	div := math.IsInf(inv, 0)
	var sumd, sumq float64
	for j, x := range row {
		var c float64
		if div {
			c = math.RoundToEven(x / scale)
		} else {
			c = math.RoundToEven(x * inv)
		}
		// The quotient can round a full-scale coordinate past ±127
		// (|x| == maxabs gives exactly ±127 only when it is exact); clamp
		// so the code always fits the int8 contract.
		if c > 127 {
			c = 127
		} else if c < -127 {
			c = -127
		}
		codes[j] = int8(c)
		deq := scale * c
		d := x - deq
		sumd += d * d
		sumq += deq * deq
	}
	slack := sumSlack(len(row))
	norm = inflate(math.Sqrt(sumq), slack)
	// ‖e_p‖ in exact arithmetic differs from the computed ‖d‖ by at most
	// the rounding of scale·c and of the subtraction, each ≤ 2⁻⁵³ relative
	// to the dequantized coordinate — covered by the 4·2⁻⁵²·‖p̂‖ term.
	resid = inflate(math.Sqrt(sumd)+4*(2*ulp)*norm, slack)
	if math.IsNaN(resid) || math.IsNaN(norm) || math.IsInf(norm, 0) {
		return 0, math.Inf(1), 0
	}
	return scale, resid, norm
}

// Query is a quantized query vector: the same per-vector symmetric scheme,
// with the codes kept in a caller-owned buffer so steady-state retrieval
// quantizes queries without allocating.
type Query struct {
	Scale float64
	Codes []int8
	Resid float64 // upper bound on ‖q − Scale·Codes‖
	Norm  float64 // upper bound on ‖Scale·Codes‖
}

// QuantizeQuery quantizes q into the caller's dst buffer (len(dst) must be
// len(q); QuantizeQuery panics otherwise). ok is false when q holds a
// non-finite value or its magnitude defeats quantization — callers must
// then skip screening entirely and verify every candidate exactly.
func QuantizeQuery(dst []int8, q []float64) (qq Query, ok bool) {
	if len(dst) != len(q) {
		panic("quant: QuantizeQuery buffer size does not match the query dimension")
	}
	if len(q) == 0 || len(q) > MaxDim {
		return Query{}, false
	}
	scale, resid, norm := quantizeRow(dst, q)
	if math.IsInf(resid, 0) {
		return Query{}, false
	}
	return Query{Scale: scale, Codes: dst, Resid: resid, Norm: norm}, true
}

// screenSlack is the relative allowance backing the screen's naked
// arithmetic: it must dominate, relative to ‖q‖·‖p‖, the exact kernel's
// accumulation rounding (as dotSlack does) and the ~10 roundings of the
// predicate and of NewScreen's folding — each at most one ulp of a
// norm-dominated quantity (the package comment's error model). The headroom
// over dotSlack is 32 ulp, about three times what those roundings can
// consume.
func screenSlack(r int) float64 { return dotSlack(r) + 32*ulp }

// Screen is the per-(query, panel) state of the screening predicate: the
// query's codes and the two constants the row-independent part of the bound
// folds into. Build one per screening pass with NewScreen; it lives on the
// caller's stack.
type Screen struct {
	qr    *Rows
	codes []int8  // query codes
	qs    float64 // emit·(query scale)
	resid float64 // emit·(qn·maxResid + (qresid + screenSlack·qUB)·maxNormUB) + tiny
}

// NewScreen hoists the query-side constants of the screen, pre-multiplied
// by emit, so the predicate bounds emit·Dot. Retrieval passes 1: the panel
// holds raw rows, and the value it screens is the bare dot fl(qᵀp). emit
// must be nonnegative — a negative factor would flip the bound's side; a
// NaN or +Inf emit only poisons the bound conservatively. qq must be a
// quantization of an r-dimensional query; NewScreen panics otherwise.
func (qr *Rows) NewScreen(qq Query, emit float64) Screen {
	if len(qq.Codes) != qr.r {
		panic("quant: NewScreen on a query of the wrong dimension")
	}
	qUB := qq.Norm + qq.Resid
	qfac := qq.Resid + screenSlack(qr.r)*qUB
	return Screen{
		qr:    qr,
		codes: qq.Codes,
		qs:    emit * qq.Scale,
		resid: emit*(qq.Norm*qr.maxResid+qfac*qr.maxNormUB) + tiny,
	}
}

// survives is the screening predicate for one row: scale is the row's
// S_p[i], d its integer dot with the query codes, qs and resid the Screen's
// constants. The row is discarded exactly when ub < cut for
// ub = emit·(S_q·S_p[i]·d + resid) ≥ fl(emit·Dot(q, row_i)) (the package
// comment). Non-finite inputs or overflow make ub +Inf or NaN, which fail
// the second comparison, or −Inf (an overflowed scale product times a
// negative d), which the first comparison catches: all three survive. The
// conversion pins the product's rounding on architectures that would
// otherwise fuse it into the add, so every build decides every row alike.
// Operands come by value so that the loops below keep them in registers
// across their stores.
func survives(qs, resid, scale float64, d int32, cut float64) bool {
	ub := float64(qs*scale*float64(d)) + resid
	return !(ub >= -math.MaxFloat64 && ub < cut)
}

// keep is survives for row i.
func (s *Screen) keep(i int, d int32, cut float64) bool {
	return survives(s.qs, s.resid, s.qr.Scales[i], d, cut)
}

// Screen8 screens eight rows anywhere in the panel: dots[j] receives row
// ij's integer dot and bit j of the result is set when row ij survives
// against cut. lens is not read — a raw row carries its length in its
// codes — and stays for callers of the length-scaled predicate
// (benchmark/kernels.go, which passes ones).
func (s *Screen) Screen8(i0, i1, i2, i3, i4, i5, i6, i7 int, lens *[8]float64, cut float64, dots *[8]int32) uint8 {
	return s.screen8(&[8]int{i0, i1, i2, i3, i4, i5, i6, i7}, cut, dots)
}

func (s *Screen) screen8(rows *[8]int, cut float64, dots *[8]int32) uint8 {
	if Accelerated(s.qr.r) {
		return dot8Asm(s.codes, s.qr.Codes, rows, dots, s.qr.Scales, s.qs, s.resid, cut)
	}
	dot8Go(s.codes, s.qr.Codes, rows, dots)
	return s.mask8(rows, cut, dots)
}

// mask8 is the predicate half of Screen8 over dots the eight-pointer kernel
// filled: the portable twin and oracle of the predicate dot8AVX2 fuses in.
func (s *Screen) mask8(rows *[8]int, cut float64, dots *[8]int32) uint8 {
	scales, qs, resid := s.qr.Scales, s.qs, s.resid
	var mask uint8
	for j, i := range rows {
		if survives(qs, resid, scales[i], dots[j], cut) {
			mask |= 1 << j
		}
	}
	return mask
}

// Prefix screens the panel's first n rows: one panel-kernel pass fills dots,
// then the survivors' row numbers are written to rows in order, their dots
// compacted to the front of dots alongside. It returns the survivor count.
// dots and rows must hold n elements.
func (s *Screen) Prefix(n int, cut float64, dots, rows []int32) int {
	dots = dots[:n]
	dotPanel(s.codes, s.qr.Codes[:n*s.qr.r], dots)
	return s.sift(cut, dots, rows)
}

// sift is the predicate half of Prefix, over dots the panel kernel filled:
// siftAVX2 over the groups of eight where the kernels are assembly,
// siftPrefix over the rest.
func (s *Screen) sift(cut float64, dots, rows []int32) int {
	n := len(dots)
	scales, rows := s.qr.Scales[:n], rows[:n]
	i, k := 0, 0
	if Accelerated(s.qr.r) && n >= 8 {
		i = n &^ 7
		k = siftAVX2(&dots[0], &scales[0], i, s.qs, s.resid, cut, &rows[0])
	}
	return s.siftPrefix(i, k, cut, dots, rows)
}

// siftPrefix is sift's portable twin and oracle, from row i on with k
// survivors already compacted.
func (s *Screen) siftPrefix(i, k int, cut float64, dots, rows []int32) int {
	scales, rows := s.qr.Scales[:len(dots)], rows[:len(dots)]
	qs, resid := s.qs, s.resid
	for ; i < len(dots); i++ {
		if d := dots[i]; survives(qs, resid, scales[i], d, cut) {
			rows[k], dots[k] = int32(i), d
			k++
		}
	}
	return k
}

// List screens the rows listed in rows (any order, repeats allowed):
// survivors are compacted to the front of rows in order, their dots written
// to dots alongside. Blocks of eight go through Screen8, the ragged tail
// through the one-row kernel. It returns the survivor count. dots must hold
// len(rows) elements.
func (s *Screen) List(rows []int32, cut float64, dots []int32) int {
	qr := s.qr
	k, i := 0, 0
	var r8 [8]int
	var d8 [8]int32
	for ; i+8 <= len(rows); i += 8 {
		for j, row := range rows[i : i+8] {
			r8[j] = int(row)
		}
		// The block is copied out and k never passes it, so the writes below
		// reach no unread entry of rows.
		for mask := s.screen8(&r8, cut, &d8); mask != 0; mask &= mask - 1 {
			j := bits.TrailingZeros8(mask)
			rows[k], dots[k] = int32(r8[j]), d8[j]
			k++
		}
	}
	for ; i < len(rows); i++ {
		row := rows[i]
		d := DotQ8(s.codes, qr.Row(int(row)))
		if s.keep(int(row), d, cut) {
			rows[k], dots[k] = row, d
			k++
		}
	}
	return k
}
