package core

import "lemp/internal/lsh"

// runBucketBLSH prunes candidates with BayesLSH-Lite (the paper's
// LEMP-BLSH, §6.3): the length-qualified prefix of the bucket (exactly
// LENGTH's candidate set) is filtered by signature agreement — a vector
// survives only if its signature matches the query's in at least
// MinMatches(θ_b) bits, the smallest count for which the Bayesian
// posterior P(cos ≥ θ_b | matches) reaches ε. One 32-bit signature, as the
// paper found best. This is the library's only approximate method: each
// true result independently escapes with probability ≤ ε.
func runBucketBLSH(b *bucket, h *lsh.Hasher, table *lsh.Table, qi int32, qdir []float64, qlen, theta, thetaB float64, s *scratch) {
	s.resetCands()
	sigs := b.ensureSigs(h)
	sig := s.querySig(h, qi, qdir)
	minLen := theta / qlen
	prefix := b.lengthPrefix(minLen)
	need := table.MinMatches(thetaB)
	bits := h.Bits()
	for lid := 0; lid < prefix; lid++ {
		if lsh.Matches(sig, sigs[lid], bits) >= need {
			s.cand = append(s.cand, int32(lid))
		}
	}
	s.work += int64(prefix)
}
