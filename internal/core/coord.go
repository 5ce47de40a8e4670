package core

// runCoord implements the COORD algorithm (§4.2, Algorithm 2, with the
// implementation details of Appendix A): for each of the φ focus
// coordinates with the largest |q̄_f|, binary-search the feasible region
// [L_f, U_f] in the coordinate's sorted list and count, per probe vector,
// in how many scan ranges it appears. Vectors appearing in all φ ranges are
// candidates.
//
// Appendix A's no-clear trick: the scan of the first list (chosen as the
// focus coordinate with the fewest elements in range, since it is scanned
// twice) *sets* CP entries to 1, the remaining lists increment, and the
// final filter re-scans only the first range checking for the value φ.
// Entries outside the first range are never read.
func runCoord(b *bucket, qdir []float64, thetaB float64, phi int, s *scratch) {
	s.resetCands()
	if thetaB <= 0 {
		allCandidates(b, s)
		return
	}
	lists := b.ensureLists(1)
	s.selectFocus(qdir, phi)
	nf := len(s.focus)
	if nf == 0 { // r == 0 or φ == 0: nothing to prune on
		allCandidates(b, s)
		return
	}
	first := 0
	for i, f := range s.focus {
		lo, hi := feasibleRegion(qdir[f], thetaB)
		start, end := lists.scanRange(int(f), lo, hi)
		s.rangeStart[i], s.rangeEnd[i] = start, end
		if end-start < s.rangeEnd[first]-s.rangeStart[first] {
			first = i
		}
		s.work += int64(end - start)
	}
	if s.rangeEnd[first] == s.rangeStart[first] {
		return // an empty feasible range excludes every vector
	}
	// Pass 1: the smallest range initializes the CP array. The scatter
	// loops run four independent counter updates per iteration (local ids
	// are unique within one list, so the four slots never collide and the
	// stores overlap instead of serializing).
	_, lids := lists.list(int(s.focus[first]))
	{
		i, end := s.rangeStart[first], s.rangeEnd[first]
		for ; i+4 <= end; i += 4 {
			l0, l1, l2, l3 := lids[i], lids[i+1], lids[i+2], lids[i+3]
			s.cp[l0] = 1
			s.cp[l1] = 1
			s.cp[l2] = 1
			s.cp[l3] = 1
		}
		for ; i < end; i++ {
			s.cp[lids[i]] = 1
		}
	}
	// Remaining ranges increment.
	for j := 0; j < nf; j++ {
		if j == first {
			continue
		}
		_, l := lists.list(int(s.focus[j]))
		i, end := s.rangeStart[j], s.rangeEnd[j]
		for ; i+4 <= end; i += 4 {
			l0, l1, l2, l3 := l[i], l[i+1], l[i+2], l[i+3]
			s.cp[l0]++
			s.cp[l1]++
			s.cp[l2]++
			s.cp[l3]++
		}
		for ; i < end; i++ {
			s.cp[l[i]]++
		}
	}
	// Filter: re-scan the first range; survivors appeared in all φ lists.
	want := int32(nf)
	for i := s.rangeStart[first]; i < s.rangeEnd[first]; i++ {
		if s.cp[lids[i]] == want {
			s.cand = append(s.cand, lids[i])
		}
	}
	s.work += int64(s.rangeEnd[first] - s.rangeStart[first])
}
