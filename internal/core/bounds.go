package core

import "math"

// feasibleRegion returns the bounds [L_f, U_f] on p̄_f outside of which a
// probe direction cannot reach cosine similarity θ_b with the query (§4.2,
// "Bounding Coordinates"). For unit vectors, with q̄_f = cos α and
// θ_b = cos γ, they are U_f = cos(α−γ), or 1 once q̄_f ≥ θ_b, and
// L_f = cos(α+γ), or −1 once −q̄_f ≥ θ_b: the paper's roots of
// θ_b ≤ q̄_f·p̄_f + √(1−q̄_f²)·√(1−p̄_f²) with the interval where q̄_f·p̄_f ≥ θ_b
// alone suffices reattached. For θ_b ≤ 0 pruning is impossible in general
// and the full range is returned (a Row-Top-k run whose running threshold
// is still negative).
//
// slack is the index's boundSlack δ. θ_b is lowered to t = θ_b − δ, and the
// region is solved for vectors of squared norm s = 1+δ, which the derived
// directions may reach, so the remainder is s − q̄_f², evaluated as
// (1−q̄_f)(1+q̄_f) + δ: near an axis the endpoints are steep in it, and a
// difference of nearly equal squares would lose them. The caps take a
// margin of δ, and the region is widened by δ for its own rounding.
func feasibleRegion(qf, thetaB, slack float64) (lo, hi float64) {
	t := thetaB - slack
	if t <= 0 {
		return -1 - slack, 1 + slack
	}
	s := 1 + slack
	if t > s { // the caller prunes such buckets first; stay safe anyway
		return 1, -1
	}
	root := math.Sqrt(math.Max(0, (1-qf)*(1+qf)+slack) * ((s - t) * (s + t)))
	lo, hi = (qf*t-root)/s, (qf*t+root)/s
	if qf >= t-slack {
		hi = s
	}
	if -qf >= t-slack {
		lo = -s
	}
	return lo - slack, hi + slack
}

// boundSlack is the rounding slack δ(r) by which every pruning bound of an
// index of dimension r is loosened, so that no bound prunes an entry whose
// value, fl(qᵀp), reaches θ. With u = 2⁻⁵³: fl(qᵀp) exceeds qᵀp by at most
// r·u·‖q‖·‖p‖; each computed length falls short of the exact one by at most
// (r/2+1)u; the local threshold θ/(‖q‖·l_b) takes two roundings. So a value
// reaching θ has θ/(‖q‖·l_b) ≤ 1+(2r+6)u, which bounds bucket pruning and
// LENGTH. The coordinate methods read unit coordinates derived from the
// rows, row[f]·fl(1/‖p‖), and the query's alike, each within (r/2+3)u of
// the exact unit vector's: their exact q̄ᵀp̄ falls short of θ/(‖q‖·‖p‖) by at
// most (2r+8)u, and their squared norms exceed 1 by at most (r+6)u.
// δ(r) = (2r+16)u = (r+8)·2⁻⁵² covers each with room for second-order
// terms. A threshold t becomes t − δ·|t|, a cosine limit 1 becomes 1+δ,
// feasibleRegion solves for squared norms up to 1+δ, and INCR's remainders
// 1−‖q̄_F‖² and 1−‖p̄_F‖² each gain δ, which also covers INCR's partial
// products, summed in list order (≤ φ·u ≤ r·u). Products or lengths in the
// subnormal range add absolute errors no relative slack covers, so a row
// whose coordinates are all subnormal is outside this analysis.
func boundSlack(r int) float64 { return float64(r+8) * 0x1p-52 }
