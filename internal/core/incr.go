package core

import "math"

// runIncr implements the INCR algorithm (§4.3 with the rewritten
// acceptance tests of Appendix A). Like COORD it scans the feasible ranges
// of the φ focus-coordinate lists, but it additionally accumulates, per
// probe vector, the partial inner product q̄_Fᵀp̄_F and partial squared norm
// ‖p̄_F‖². A vector is kept only if the partial product plus the
// Cauchy–Schwarz bound on the unseen part can reach the probe-specific
// local threshold θ_p(q) = θ/(‖p‖·‖q‖):
//
//	accept if q̄_Fᵀp̄_F·‖p‖·‖q‖ > θ, or
//	       if ‖p‖²‖q‖²(1−‖p̄_F‖²)(1−‖q̄_F‖²) ≥ (θ − q̄_Fᵀp̄_F·‖p‖·‖q‖)²,
//
// which is Eq. (5) with the square roots and divisions multiplied out.
// Per Appendix A the COORD counter is dropped: a vector missing from some
// focus range is infeasible in that coordinate, hence below θ_b ≤ θ_p and
// never a true result, so the (possibly incomplete) accumulators can only
// admit spurious candidates, which verification removes. The index's slack
// (boundSlack) loosens θ, the feasible regions and both remainders.
func runIncr(b *bucket, qdir []float64, qlen, theta, thetaB, slack float64, phi int, s *scratch) {
	s.resetCands()
	if thetaB <= 0 {
		allCandidates(b, s)
		return
	}
	lists := b.ensureLists(1)
	s.selectFocus(qdir, phi)
	nf := len(s.focus)
	if nf == 0 {
		allCandidates(b, s)
		return
	}
	first := 0
	for i, f := range s.focus {
		lo, hi := feasibleRegion(qdir[f], thetaB, slack)
		start, end := lists.scanRange(int(f), lo, hi)
		s.rangeStart[i], s.rangeEnd[i] = start, end
		if end-start < s.rangeEnd[first]-s.rangeStart[first] {
			first = i
		}
		s.work += 3 * int64(end-start) // value loads + two FMAs per entry
	}
	if s.rangeEnd[first] == s.rangeStart[first] {
		return
	}
	// ‖q̄_F‖² of the focus part, shared by all acceptance tests.
	var qFsq float64
	for _, f := range s.focus {
		qFsq += qdir[f] * qdir[f]
	}
	// Pass 1: the smallest range initializes the extended CP array. Like
	// COORD's counter scatter, the loops process four list entries per
	// iteration with independent accumulator slots (lids are unique within
	// a list), so the two FMAs per entry overlap across entries.
	{
		qf := qdir[s.focus[first]]
		vals, lids := lists.list(int(s.focus[first]))
		i, end := s.rangeStart[first], s.rangeEnd[first]
		for ; i+4 <= end; i += 4 {
			v0, v1, v2, v3 := vals[i], vals[i+1], vals[i+2], vals[i+3]
			l0, l1, l2, l3 := lids[i], lids[i+1], lids[i+2], lids[i+3]
			s.cpdot[l0] = qf * v0
			s.cpdot[l1] = qf * v1
			s.cpdot[l2] = qf * v2
			s.cpdot[l3] = qf * v3
			s.cpsq[l0] = v0 * v0
			s.cpsq[l1] = v1 * v1
			s.cpsq[l2] = v2 * v2
			s.cpsq[l3] = v3 * v3
		}
		for ; i < end; i++ {
			v := vals[i]
			lid := lids[i]
			s.cpdot[lid] = qf * v
			s.cpsq[lid] = v * v
		}
	}
	// Remaining ranges accumulate. Writes to entries outside the first
	// range land on stale slots that are never read.
	for j := 0; j < nf; j++ {
		if j == first {
			continue
		}
		qf := qdir[s.focus[j]]
		vals, lids := lists.list(int(s.focus[j]))
		i, end := s.rangeStart[j], s.rangeEnd[j]
		for ; i+4 <= end; i += 4 {
			v0, v1, v2, v3 := vals[i], vals[i+1], vals[i+2], vals[i+3]
			l0, l1, l2, l3 := lids[i], lids[i+1], lids[i+2], lids[i+3]
			s.cpdot[l0] += qf * v0
			s.cpdot[l1] += qf * v1
			s.cpdot[l2] += qf * v2
			s.cpdot[l3] += qf * v3
			s.cpsq[l0] += v0 * v0
			s.cpsq[l1] += v1 * v1
			s.cpsq[l2] += v2 * v2
			s.cpsq[l3] += v3 * v3
		}
		for ; i < end; i++ {
			v := vals[i]
			lid := lids[i]
			s.cpdot[lid] += qf * v
			s.cpsq[lid] += v * v
		}
	}
	// Filter over the first range with the rewritten Eq. (5).
	qRestSq := 1 + slack - qFsq
	if qRestSq < 0 {
		qRestSq = 0
	}
	theta -= slack * math.Abs(theta)
	_, lids := lists.list(int(s.focus[first]))
	for i := s.rangeStart[first]; i < s.rangeEnd[first]; i++ {
		lid := lids[i]
		plen := b.lens[lid]
		partial := s.cpdot[lid] * plen * qlen
		if partial > theta {
			s.cand = append(s.cand, lid)
			continue
		}
		pRestSq := 1 + slack - s.cpsq[lid]
		if pRestSq < 0 {
			pRestSq = 0
		}
		rest := theta - partial
		if plen*plen*qlen*qlen*pRestSq*qRestSq >= rest*rest {
			s.cand = append(s.cand, lid)
		}
	}
	s.work += 2 * int64(s.rangeEnd[first]-s.rangeStart[first])
}
