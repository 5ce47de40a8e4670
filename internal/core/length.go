package core

import "math"

// runLength implements the LENGTH algorithm (§4.1): the bucket's vectors
// are sorted by decreasing length, so scan the prefix with
// ‖p‖ ≥ θ/‖q‖ — beyond it no inner product can reach θ — and hand the
// prefix to verification. theta may be -Inf (an unseeded Row-Top-k run),
// in which case the whole bucket qualifies. The length bound is loosened by
// the index's slack (boundSlack). The prefix is recorded, not written out
// lid by lid (scratch.setPrefix).
func runLength(b *bucket, theta, qlen, slack float64, s *scratch) {
	minLen := theta / qlen
	minLen -= slack * math.Abs(minLen)
	prefix := b.lengthPrefix(minLen)
	s.setPrefix(prefix)
	s.work += int64(prefix)
}

// allCandidates hands the whole bucket to verification; used by the
// coordinate methods when the local threshold is non-positive (pruning by
// direction is impossible).
func allCandidates(b *bucket, s *scratch) {
	s.setPrefix(b.size())
	s.work += int64(b.size())
}
