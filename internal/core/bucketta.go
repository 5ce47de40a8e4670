package core

// runBucketTA runs the threshold algorithm inside one bucket (the paper's
// LEMP-TA, §6.3): a TA scan over the bucket's sorted lists of *normalized*
// values with the local threshold θ_b(q). Unlike standalone TA, it does not
// verify on first encounter — every distinct vector popped before the
// frontier bound drops below θ_b becomes a candidate and is verified later
// by LEMP, exactly as with the other bucket algorithms. Lists are scanned
// top-down for positive query coordinates and bottom-up for negative ones.
// The per-list frontier is selected with a max-heap over q̄_f·p̄_f, the
// "most promising coordinate" strategy the paper uses (§6.1).
func runBucketTA(b *bucket, qdir []float64, thetaB float64, s *scratch) {
	s.resetCands()
	if thetaB <= 0 {
		allCandidates(b, s)
		return
	}
	lists := b.ensureLists(1)
	n := b.size()
	s.taMark++
	if s.taMark <= 0 { // wrapped: clear stamps once per 2³¹ calls
		for i := range s.taSeen {
			s.taSeen[i] = 0
		}
		s.taMark = 1
	}
	// Frontier state per active coordinate, embedded in a small max-heap
	// keyed by the frontier contribution q̄_f·p̄_f. The heap storage lives
	// in the scratch to avoid a per-(query,bucket) allocation.
	heap := s.taHeap[:0]
	push := func(fr taFrontier) {
		heap = append(heap, fr)
		for i := len(heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if heap[parent].contrib >= heap[i].contrib {
				break
			}
			heap[parent], heap[i] = heap[i], heap[parent]
			i = parent
		}
	}
	pop := func() taFrontier {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, rr := 2*i+1, 2*i+2
			largest := i
			if l < len(heap) && heap[l].contrib > heap[largest].contrib {
				largest = l
			}
			if rr < len(heap) && heap[rr].contrib > heap[largest].contrib {
				largest = rr
			}
			if largest == i {
				return top
			}
			heap[i], heap[largest] = heap[largest], heap[i]
			i = largest
		}
	}
	var ub float64
	for f, qf := range qdir {
		if qf == 0 || n == 0 {
			continue
		}
		vals, _ := lists.list(f)
		fr := taFrontier{f: int32(f), dir: 1}
		if qf < 0 {
			fr.pos = int32(n - 1)
			fr.dir = -1
		}
		fr.contrib = qf * vals[fr.pos]
		ub += fr.contrib
		push(fr)
	}
	for len(heap) > 0 && ub >= thetaB {
		fr := pop()
		vals, lids := lists.list(int(fr.f))
		lid := lids[fr.pos]
		if s.taSeen[lid] != s.taMark {
			s.taSeen[lid] = s.taMark
			s.cand = append(s.cand, lid)
		}
		s.work += 2
		next := fr.pos + fr.dir
		if next < 0 || int(next) >= n {
			break // a list is exhausted: every vector has been seen
		}
		qf := qdir[fr.f]
		c := qf * vals[next]
		ub += c - fr.contrib
		push(taFrontier{contrib: c, f: fr.f, pos: next, dir: fr.dir})
	}
	s.taHeap = heap[:0]
}
