package core

import "math"

// runBucketTree runs a cover-tree search inside one bucket (the paper's
// LEMP-Tree, §6.3): the tree over the bucket's raw vectors is built lazily
// on first use, so buckets pruned by length never pay construction — the
// property that lets LEMP-Tree beat the standalone Tree baseline when
// preprocessing dominates. The search works on the unit query direction
// with threshold θ/‖q‖ (the kernel scales linearly in ‖q‖). Every vector
// whose inner product the search computes becomes a candidate; LEMP's
// verification re-checks them against θ, keeping candidate accounting
// uniform across bucket algorithms.
func runBucketTree(b *bucket, qdir []float64, qlen, theta float64, s *scratch) {
	s.resetCands()
	scaled := theta / qlen
	if math.IsInf(scaled, -1) {
		// Unseeded Row-Top-k pass: everything qualifies, so skip even
		// building the tree.
		allCandidates(b, s)
		return
	}
	tree := b.ensureTree()
	s.work += tree.SearchAboveTheta(qdir, 1, scaled, func(lid int32, _ float64) {
		s.cand = append(s.cand, lid)
	})
}
