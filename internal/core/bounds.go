package core

import "math"

// feasibleRegion returns the bounds [L_f, U_f] on p̄_f outside of which a
// probe direction cannot reach cosine similarity θ_b with the query (§4.2,
// "Bounding Coordinates"): solving
//
//	θ_b ≤ q̄_f·p̄_f + √(1−q̄_f²)·√(1−p̄_f²)
//
// for p̄_f gives the roots L′/U′; the piecewise cases reattach the interval
// where q̄_f·p̄_f ≥ θ_b alone suffices. For θ_b ≤ 0 pruning is impossible
// in general and the full range [-1,1] is returned (this occurs only in
// Row-Top-k runs whose running threshold is still negative).
//
// slack is the index's boundSlack: θ_b is lowered by it, which covers the
// stored directions' norms exceeding 1 and the computed dot exceeding the
// exact one, and the region is widened by it on both sides, which covers the
// rounding of its own endpoints and coordinates a hair outside [-1, 1].
func feasibleRegion(qf, thetaB, slack float64) (lo, hi float64) {
	thetaB -= slack
	if thetaB <= 0 {
		return -1 - slack, 1 + slack
	}
	if thetaB > 1 {
		// The caller prunes whole buckets with θ_b > 1 before asking
		// for coordinate bounds; an empty region keeps this safe
		// anyway.
		return 1, -1
	}
	root := math.Sqrt(math.Max(0, (1-thetaB*thetaB)*(1-qf*qf)))
	l := qf*thetaB - root
	u := qf*thetaB + root
	lo, hi = l, u
	// Reattach the {q̄_f·p̄_f ≥ θ_b} interval when it is non-empty: for
	// q̄_f > 0 it is [θ_b/q̄_f, 1] (reaching 1 exactly when the quadratic
	// root U′ passes θ_b/q̄_f), symmetrically for q̄_f < 0.
	if qf > 0 && !(u < thetaB/qf) {
		hi = 1
	}
	if qf < 0 && !(l > thetaB/qf) {
		lo = -1
	}
	return lo - slack, hi + slack
}

// boundSlack is the rounding slack δ(r) by which every pruning bound of an
// index of dimension r is loosened, so that no bound prunes an entry whose
// computed value reaches θ. With u = 2⁻⁵³ the unit roundoff, the scan's value
// of an entry, (q̄ᵀp̄·a)·b with a, b the two lengths in either order, exceeds
// ‖q‖·‖p‖ (the computed lengths) by at most these factors:
//
//   - normalization: q̄ = q·fl(1/‖q‖) has norm ≤ 1+(r/2+3)u (the r-term sum
//     of squares, its square root, the reciprocal and the product), and so
//     has p̄, so the exact q̄ᵀp̄ is ≤ 1+(r+6)u;
//   - the canonical-order dot: ≤ r·u more, relative to Σ|q̄_f·p̄_f|;
//   - the two multiplications: 2u.
//
// That is (2r+8)u, and the local threshold θ/(‖q‖·l_b) it is compared with
// takes two roundings more. δ(r) = (2r+16)u = (r+8)·2⁻⁵² covers them all
// with room for the second-order terms. It loosens every bound whatever θ's
// sign: a threshold t becomes t − δ·|t|, a cosine limit 1 becomes 1+δ, and
// INCR's remainders 1−‖q̄_F‖² and 1−‖p̄_F‖² each gain δ. The sqrt of a
// product of remainders each raised by δ rises by at least δ, which also
// covers INCR's partial products, summed in list order rather than the
// canonical one (≤ φ·u ≤ r·u).
func boundSlack(r int) float64 { return float64(r+8) * 0x1p-52 }
