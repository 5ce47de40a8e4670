package core

import (
	"math"

	"lemp/internal/retrieval"
	"lemp/internal/topk"
)

// The two tile kernels under the executor (executor.go). Both run §3.2's
// nest — probe buckets (small, cache-resident) in the outer loop, the
// tile's queries in the inner one, so a bucket and its sorted lists are
// read from memory once per tile, not once per query — and both poll the
// call's context once per (bucket, query) pair, so cancellation costs at
// most one bucket of work per worker. They stay two because their pruning
// control flow differs: Above-θ walks the queries in decreasing length and
// stops at the first pruned one, Row-Top-k keeps a per-query threshold and
// an active list. What they share per pair is verifyCands.

// scanRange answers sorted queries [lo, hi) with the problem's kernel:
// entries to sink for Above-θ, whose kernel takes the range whole, rows into
// out for Row-Top-k, tile by tile. Each worker owns its scratch — the tile's
// heaps included — and its st; output rows are disjoint, so no locking.
func (ix *Index) scanRange(c *call, p Problem, qs *querySet, lo, hi int, s *scratch, out retrieval.TopK, sink retrieval.Sink, st *Stats) {
	if p.K == 0 {
		ix.aboveWorker(c, qs, lo, hi, p.Theta, s, sink, st)
		return
	}
	live := ix.LiveN()
	if live == 0 {
		return
	}
	kk := min(p.K, live)
	rows := min(topkTileRows, max(1, topkTileItems/kk))
	for ; lo < hi && !c.canceled(); lo += rows {
		ix.topkTile(c, qs, lo, min(lo+rows, hi), kk, s, out, st)
	}
}

// verifyCands is the per-pair step of both kernels (line 16 of Algorithm
// 1), for scan bucket bi: count the candidates its method left in s.cand,
// drop tombstones, screen against cut — θ, or the current heap floor — where
// sidecarFor says the pair is screened, and compute the survivors' dots q̄ᵀp̄
// into s.vals with the blocked kernels (verify.go). The tuner's measurements
// and its Row-Top-k trajectory call it too, so §4.4 fits the cost a scan
// pays. The dots are accumulated in vecmath's canonical order
// (vecmath/kernels.go) whichever kernel computes them, so a candidate's value
// depends neither on the candidates it is verified with nor on the tile its
// query rides in.
func (ix *Index) verifyCands(bi int, s *scratch, qi int32, qdir []float64, qlen, cut float64, st *Stats) {
	b := ix.scan[bi]
	st.Candidates += int64(len(s.cand))
	ix.compactLiveCands(bi, s)
	ix.screenCands(b, s, qi, qdir, qlen, cut, st)
	verifyDots(b, qdir, s, st)
}

// aboveWorker is the Above-θ kernel for sorted queries [lo, hi), one
// scratch tile: what a query needs in every bucket it meets (its quantized
// codes) is derived once and kept per row. A query whose
// local threshold exceeds 1 ends the inner loop — every later query is
// shorter — and a bucket whose longest query is pruned ends the run — every
// later bucket is shorter too. The loop carries the bucket position bi, so
// that early exit's pruning statistic is O(1).
func (ix *Index) aboveWorker(c *call, qs *querySet, lo, hi int, theta float64, s *scratch, emit retrieval.Sink, st *Stats) {
	nq := int64(hi - lo)
	limit := 1 + ix.slack // the largest local threshold a computed value can reach
	s.beginTile(lo, hi-lo)
	for bi, b := range ix.scan {
		// θ_b(q) = θ/(‖q‖·l_b); for l_b = 0 this is +Inf and the
		// bucket (zero vectors only) is pruned for every query.
		processed := int64(0)
		for qi := lo; qi < hi; qi++ {
			if c.canceled() {
				return
			}
			qlen := qs.lens[qi]
			if qlen == 0 {
				break // zero queries produce only zero products < θ
			}
			thetaB := theta / (qlen * b.lb)
			if thetaB > limit {
				break // every later query is shorter (line 13)
			}
			processed++
			qdir, origID := qs.dir(qi), int(qs.ids[qi])
			ix.gather(c, bi, int32(qi), qdir, qlen, theta, thetaB, s)
			ix.verifyCands(bi, s, int32(qi), qdir, qlen, theta, st)
			// Each emitted value is (q̄ᵀp̄)·‖q‖·‖p‖, always multiplied in
			// that order.
			for i, dot := range s.vals {
				lid := s.lid(i)
				if v := dot * qlen * b.lens[lid]; v >= theta {
					st.Results++
					emit(retrieval.Entry{Query: origID, Probe: int(b.ids[lid]), Value: v})
				}
			}
		}
		st.ProcessedPairs += processed
		st.PrunedPairs += nq - processed
		if processed == 0 {
			// Even the longest query was pruned; later buckets have
			// smaller l_b, so nothing else can qualify.
			st.PrunedPairs += int64(len(ix.scan)-bi-1) * nq
			break
		}
	}
}

// topkTileRows caps the queries one bucket-major pass carries: enough that
// a bucket and its sorted lists, read from memory once per tile, are shared
// by many queries, few enough that the tile's directions, heaps and
// quantized codes stay cache-resident beside the bucket. It equals the bulk
// engine's default panel height, so a default panel is one tile. The heaps
// are part of that working set, so a large k shrinks the tile: together
// they hold at most topkTileItems entries (16 bytes each, 1 MB).
const (
	topkTileRows  = 256
	topkTileItems = 1 << 16
)

// topkThresholds returns what a Row-Top-k query brings to a bucket of
// longest length lb (§4.5: Above-θ′ with θ′ the heap's current k-th best
// value): the running threshold θ′ and the local one θ′/l_b, both -Inf
// until the heap is full — the first bucket, which holds the longest
// vectors, is scanned fully and plays the role of the paper's "k longest
// vectors" seed — and whether θ′ prunes the bucket, which prunes every
// later one too. The query's length is irrelevant to its ranking, so the
// search runs on the unit direction (‖q‖ = 1). limit is 1 plus the index's
// slack (boundSlack).
func topkThresholds(heap *topk.Heap, lb, limit float64) (theta, thetaB float64, pruned bool) {
	theta, thetaB = math.Inf(-1), math.Inf(-1)
	if thr, ok := heap.Threshold(); ok {
		theta = thr
		if lb == 0 {
			// Zero-length probes: products are 0.
			return theta, -1, theta > 0
		}
		thetaB = theta / lb
		return theta, thetaB, thetaB > limit
	}
	if lb == 0 {
		thetaB = -1
	}
	return theta, thetaB, false
}

// topkTile is the Row-Top-k kernel for one tile of queries. Every query
// keeps its own heap and running threshold θ′ and still meets the buckets
// in decreasing-l_b order, so its candidates, its result row and every
// counter equal a one-query scan's; a query leaves the active list at the
// first bucket its θ′ prunes. A single row is the degenerate one-query
// tile.
func (ix *Index) topkTile(c *call, qs *querySet, lo, hi, kk int, s *scratch, out retrieval.TopK, st *Stats) {
	n := hi - lo
	s.beginTile(lo, n)
	if cap(s.heaps) < n {
		s.heaps = make([]topk.Heap, n)
	}
	heaps := s.heaps[:n]
	active := s.active[:0]
	for t := range heaps {
		heaps[t].Init(kk)
		if qs.lens[lo+t] != 0 { // zero-length queries scan nothing
			active = append(active, int32(t))
		}
	}
	s.active = active // keep the grown storage pooled
	for bi, b := range ix.scan {
		if len(active) == 0 {
			break
		}
		keep := active[:0]
		for _, t := range active {
			if c.canceled() {
				return
			}
			qi := lo + int(t)
			heap := &heaps[t]
			theta, thetaB, pruned := topkThresholds(heap, b.lb, 1+ix.slack)
			if pruned {
				st.PrunedPairs++
				continue
			}
			keep = append(keep, t)
			st.ProcessedPairs++
			qdir := qs.dir(qi)
			ix.gather(c, bi, int32(qi), qdir, 1, theta, thetaB, s)
			// theta is -Inf until the heap fills, so nothing screens before
			// the seed; Push drops values ≤ the floor, so the screen's
			// strict < is byte-safe. v = (q̄ᵀp̄)·‖p‖.
			ix.verifyCands(bi, s, int32(qi), qdir, 1, theta, st)
			for i, dot := range s.vals {
				lid := s.lid(i)
				heap.Push(int(b.ids[lid]), dot*b.lens[lid])
			}
		}
		active = keep
	}
	for t := range heaps {
		origID, qlen := qs.ids[lo+t], qs.lens[lo+t]
		var row []retrieval.Entry
		if qlen == 0 {
			if c.canceled() {
				return
			}
			row = ix.zeroQueryRow(int(origID), kk)
		} else {
			// Values are rescaled by the query's length at the end.
			items := heaps[t].Items()
			row = make([]retrieval.Entry, len(items))
			for j, it := range items {
				row[j] = retrieval.Entry{Query: int(origID), Probe: it.ID, Value: it.Value * qlen}
			}
		}
		st.Results += int64(len(row))
		out[origID] = row
	}
}

// zeroQueryRow answers a zero-length query: every product is 0, so any k
// probes qualify; return the k longest live probes (ties broken by smaller
// id) for determinism. With a delta layer the per-bucket length order no
// longer implies a global order, so the buckets are merged cursor-wise.
func (ix *Index) zeroQueryRow(origID, kk int) []retrieval.Entry {
	row := make([]retrieval.Entry, 0, kk)
	cur := make([]int, len(ix.scan))
	for len(row) < kk {
		best := -1
		var bestLen float64
		var bestID int32
		for bi, b := range ix.scan {
			for cur[bi] < b.size() && ix.deadSkip(bi, cur[bi]) {
				cur[bi]++
			}
			if cur[bi] >= b.size() {
				continue
			}
			l, id := b.lens[cur[bi]], b.ids[cur[bi]]
			if best == -1 || l > bestLen || (l == bestLen && id < bestID) {
				best, bestLen, bestID = bi, l, id
			}
		}
		if best == -1 {
			break
		}
		row = append(row, retrieval.Entry{Query: origID, Probe: int(bestID), Value: 0})
		cur[best]++
	}
	return row
}
