package bench

import "lemp/internal/core"

// taGen runs the threshold algorithm inside each bucket (LEMP-TA, §6.3): a
// TA scan over the bucket's sorted lists of normalized values (the core's
// own, core.Bucket.List) with the local threshold θ_b(q). Unlike standalone
// TA it does not verify on first encounter: every distinct vector popped
// before the frontier bound drops below θ_b is a candidate. Lists are
// scanned top-down for positive query coordinates and bottom-up for negative
// ones, the next list chosen by a max-heap over q̄_f·p̄_f, the "most
// promising coordinate" strategy of §6.1.
type taGen struct{}

func (taGen) Worker() core.GenFunc { return new(taWorker).candidates }

// taWorker is one scan worker's TA scratch: seen stamps per local id and
// the frontier heap.
type taWorker struct {
	seen []int32
	mark int32
	heap taHeap
}

// taFrontier is one active sorted list: position, scan direction (+1
// top-down, -1 bottom-up) and frontier contribution q̄_f·p̄_f.
type taFrontier struct {
	contrib     float64
	f, pos, dir int32
}

func (w *taWorker) candidates(b core.Bucket, q core.Pair, cand []int32) ([]int32, int) {
	n := b.Size()
	if q.ThetaB <= 0 {
		return cand, n // no pruning by direction: the whole bucket
	}
	if len(w.seen) < n {
		w.seen, w.mark = make([]int32, n), 0
	}
	if w.mark++; w.mark <= 0 { // wrapped: clear stamps once per 2³¹ calls
		clear(w.seen)
		w.mark = 1
	}
	h := w.heap[:0]
	var ub float64
	for f, qf := range q.Dir {
		if qf == 0 {
			continue
		}
		vals, _ := b.List(f)
		fr := taFrontier{f: int32(f), dir: 1}
		if qf < 0 {
			fr.pos, fr.dir = int32(n-1), -1
		}
		fr.contrib = qf * vals[fr.pos]
		ub += fr.contrib
		h.push(fr)
	}
	for len(h) > 0 && ub >= q.ThetaB {
		fr := h.pop()
		vals, lids := b.List(int(fr.f))
		if lid := lids[fr.pos]; w.seen[lid] != w.mark {
			w.seen[lid] = w.mark
			cand = append(cand, lid)
		}
		next := fr.pos + fr.dir
		if next < 0 || int(next) >= n {
			break // a list is exhausted: every vector has been seen
		}
		c := q.Dir[fr.f] * vals[next]
		ub += c - fr.contrib
		h.push(taFrontier{contrib: c, f: fr.f, pos: next, dir: fr.dir})
	}
	w.heap = h[:0]
	return cand, 0
}

// taHeap is a max-heap of frontiers by contribution.
type taHeap []taFrontier

func (h *taHeap) push(fr taFrontier) {
	*h = append(*h, fr)
	s := *h
	for i := len(s) - 1; i > 0 && s[(i-1)/2].contrib < s[i].contrib; i = (i - 1) / 2 {
		s[(i-1)/2], s[i] = s[i], s[(i-1)/2]
	}
}

func (h *taHeap) pop() taFrontier {
	s := *h
	top, last := s[0], len(s)-1
	s[0], s = s[last], s[:last]
	for i := 0; ; {
		largest := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(s) && s[c].contrib > s[largest].contrib {
				largest = c
			}
		}
		if largest == i {
			break
		}
		s[i], s[largest] = s[largest], s[i]
		i = largest
	}
	*h = s
	return top
}
