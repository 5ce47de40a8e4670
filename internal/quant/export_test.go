package quant

import "math"

// RowBounds recomputes the inflated upper bounds on a row's quantization
// residual ‖e_p‖ and dequantized norm ‖p̂‖ at the panel's step that
// QuantizeRows folds into the panel maxima: the sidecar keeps no per-row
// copy, and quantization is deterministic, so the bracket tests derive them
// again from the row.
func (qr *Rows) RowBounds(row []float64) (resid, norm float64) {
	return quantizeRow(make([]int8, len(row)), row, qr.Scale)
}

// ApproxBound returns the quantized estimate of Dot(q, row_i) and the
// per-row Cauchy–Schwarz radius of the package comment, row being row i's
// float64 values: approx−bound ≤ Dot(q, row_i) ≤ approx+bound, where Dot is
// the float64 kernel result. When any input is non-finite or an
// intermediate overflows, it returns (0, +Inf).
func (qr *Rows) ApproxBound(qq Query, row []float64, i int) (approx, bound float64) {
	pResid, pNorm := qr.RowBounds(row)
	approx = qq.Scale * qr.Scale * float64(DotQ8(qq.Codes, qr.Row(i)))
	// ‖p‖ ≤ ‖p̂‖+‖e_p‖ and ‖q‖ ≤ ‖q̂‖+‖e_q‖ feed the Dot-rounding term.
	pUB := pNorm + pResid
	qUB := qq.Norm + qq.Resid
	cs := qq.Norm*pResid + qq.Resid*pUB
	// approx is computed with two roundings (integer dot exact in float64);
	// its error ≤ 3·2⁻⁵³·|approx| ≤ 3·2⁻⁵³·‖q̂‖·‖p̂‖ is dominated by the
	// dotSlack term, which also covers the exact kernel's accumulation.
	bound = inflate(cs+dotSlack(qr.r)*qUB*pUB, 16*ulp)
	if math.IsInf(approx, 0) || math.IsNaN(approx) || math.IsNaN(bound) {
		return 0, math.Inf(1)
	}
	return approx, bound
}
