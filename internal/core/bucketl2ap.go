package core

// runBucketL2AP generates candidates with a per-bucket L2AP index (the
// paper's LEMP-L2AP, §6.3). The index is built lazily with the smallest
// local threshold the current run can produce, t0 = θ/(‖q_max‖·l_b)
// (the paper's θ_b(q_max) lower bound); each query then probes it with its
// own, usually larger, θ_b(q). Row-Top-k runs pass t0 = 0 because their
// running threshold is unknown a priori — the paper notes this as L2AP's
// structural disadvantage inside LEMP. Negative local thresholds disable
// cosine pruning entirely.
func runBucketL2AP(b *bucket, qdir []float64, thetaB, t0 float64, s *scratch) {
	s.resetCands()
	if thetaB <= 0 {
		allCandidates(b, s)
		return
	}
	ix := b.ensureL2AP(t0)
	s.cand = ix.Candidates(qdir, thetaB, s.l2, s.cand)
	s.work += int64(ix.Entries()) / int64(b.size()) * int64(len(s.cand)+1)
}
