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
// an active list. What they share per pair is verifyCands, split in two
// where the int8 screen can take pairs in blocks.
//
// # Blocked screens
//
// A pair whose candidates are a prefix of the bucket (LENGTH, the
// whole-bucket fallback) and whose screen is on (sidecarFor) is not screened
// at once: queueScreen parks it in the scratch's quant.Block, and
// flushBlock screens up to four such pairs of the bucket in one pass (the
// VNNI block kernel loads each row chunk once for all four) and then
// verifies and reports them one by one, in the order they were queued. A
// kernel flushes when the block is full, before any pair it cannot queue,
// and at the end of the bucket, so pairs are reported in the order the
// one-pair path reports them. Batching changes nothing a query sees: its
// threshold moves only on its own pushes, which follow its own
// verification, and its screen, survivors and counters are those of its
// Prefix call.

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
// sidecarFor says the pair is screened, and compute the survivors' values
// fl(qᵀp) from the raw query row qrow into s.vals with the blocked kernels
// (verify.go). The tuner's measurements and its Row-Top-k trajectory call it
// too, so §4.4 fits the cost a scan pays. The dots are accumulated in
// vecmath's canonical order (vecmath/kernels.go) whichever kernel computes
// them, so a candidate's value depends neither on the candidates it is
// verified with nor on the tile its query rides in.
func (ix *Index) verifyCands(bi int, s *scratch, qi int32, qrow []float64, cut float64, st *Stats) {
	b := ix.scan[bi]
	st.Candidates += int64(len(s.cand))
	ix.compactLiveCands(bi, s)
	ix.screenCands(b, s, qi, qrow, cut, st)
	verifyDots(b, qrow, s, st)
}

// blockPair is a pair queued in the scratch's block: its sorted query and
// its prefix length.
type blockPair struct {
	qi int32
	n  int
}

// queueScreen is verifyCands' first step for a scan kernel: it counts the
// pair's candidates and drops tombstones, and when what is left is still a
// prefix that sidecarFor screens and the query quantizes, it queues the
// pair's screen in s.blk and returns true. Otherwise, and always in a
// one-query tile, which has no pair to share a block with, it returns
// false, with s.cand ready for screenCands and verifyDots.
func (ix *Index) queueScreen(b *bucket, bi int, s *scratch, qi int32, qrow []float64, cut float64, st *Stats) bool {
	st.Candidates += int64(len(s.cand))
	ix.compactLiveCands(bi, s)
	if !s.prefix || len(s.tileHave) < 2 {
		return false
	}
	q8 := ix.sidecarFor(b, len(s.cand), cut)
	if q8 == nil {
		return false
	}
	qq, ok := s.quantQuery(qi, qrow)
	if !ok {
		return false
	}
	if s.blkRows[0] == nil {
		for j := range s.blkRows {
			s.blkRows[j] = make([]int32, s.maxBucket)
		}
	}
	s.blkPairs[s.blk.Len()] = blockPair{qi: qi, n: len(s.cand)}
	s.blk.Add(q8.NewScreen(qq, 1), len(s.cand), cut)
	return true
}

// flushBlock screens the pairs queued in s.blk in one block pass and then,
// pair by pair in queue order, verifies the pair's survivors into s.vals and
// calls report with its query, as verifyCands and the kernel's loop would
// have. The candidates in s.cand, a pair not yet verified, are kept.
func (ix *Index) flushBlock(b *bucket, qs *querySet, s *scratch, st *Stats, report func(b *bucket, qi int32)) {
	m := s.blk.Len()
	if m == 0 {
		return
	}
	k := s.blk.Run(&s.blkRows)
	s.blk.Reset()
	cand, prefix := s.cand, s.prefix
	for j, p := range s.blkPairs[:m] {
		st.QuantScreened += int64(p.n - k[j])
		st.QuantSurvived += int64(k[j])
		s.cand, s.prefix = s.blkRows[j][:k[j]], k[j] == p.n
		verifyDots(b, qs.row(int(p.qi)), s, st)
		report(b, p.qi)
	}
	s.cand, s.prefix = cand, prefix
}

// verifyOne is verifyCands' rest for a pair queueScreen did not take, once
// the pairs queued before it are flushed.
func (ix *Index) verifyOne(b *bucket, qs *querySet, s *scratch, qi int32, cut float64, st *Stats, report func(b *bucket, qi int32)) {
	ix.flushBlock(b, qs, s, st, report)
	qrow := qs.row(int(qi))
	ix.screenCands(b, s, qi, qrow, cut, st)
	verifyDots(b, qrow, s, st)
	report(b, qi)
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
	report := func(b *bucket, qi int32) {
		origID := int(qs.ids[qi])
		for i, v := range s.vals {
			if v >= theta {
				st.Results++
				emit(retrieval.Entry{Query: origID, Probe: int(b.ids[s.lid(i)]), Value: v})
			}
		}
	}
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
			ix.gather(c, bi, int32(qi), qs.dir(qi), qlen, theta, thetaB, s)
			if !ix.queueScreen(b, bi, s, int32(qi), qs.row(qi), theta, st) {
				ix.verifyOne(b, qs, s, int32(qi), theta, st, report)
			} else if s.blk.Len() == 4 {
				ix.flushBlock(b, qs, s, st, report)
			}
		}
		ix.flushBlock(b, qs, s, st, report)
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

// topkThresholds returns what a Row-Top-k query of length qlen > 0 brings
// to a bucket of longest length lb (§4.5: Above-θ′ with θ′ the heap's
// current k-th best value): the running threshold θ′ and the local one
// θ′/(‖q‖·l_b), both -Inf until the heap is full — the first bucket, which
// holds the longest vectors, is scanned fully and plays the role of the
// paper's "k longest vectors" seed — and whether θ′ prunes the bucket, which
// prunes every later one too. limit is 1 plus the index's slack
// (boundSlack).
func topkThresholds(heap *topk.Heap, qlen, lb, limit float64) (theta, thetaB float64, pruned bool) {
	theta, thetaB = math.Inf(-1), math.Inf(-1)
	if thr, ok := heap.Threshold(); ok {
		theta = thr
		if lb == 0 {
			// Zero-length probes: products are 0.
			return theta, -1, theta > 0
		}
		thetaB = theta / (qlen * lb)
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
	push := func(b *bucket, qi int32) {
		heap := &heaps[int(qi)-lo]
		for i, v := range s.vals {
			heap.Push(int(b.ids[s.lid(i)]), v)
		}
	}
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
			heap, qlen := &heaps[t], qs.lens[qi]
			theta, thetaB, pruned := topkThresholds(heap, qlen, b.lb, 1+ix.slack)
			if pruned {
				st.PrunedPairs++
				continue
			}
			keep = append(keep, t)
			st.ProcessedPairs++
			ix.gather(c, bi, int32(qi), qs.dir(qi), qlen, theta, thetaB, s)
			// theta is -Inf until the heap fills, so nothing screens before
			// the seed; the screen keeps every value equal to the floor,
			// which Push may still take on a smaller id.
			if !ix.queueScreen(b, bi, s, int32(qi), qs.row(qi), theta, st) {
				ix.verifyOne(b, qs, s, int32(qi), theta, st, push)
			} else if s.blk.Len() == 4 {
				ix.flushBlock(b, qs, s, st, push)
			}
		}
		ix.flushBlock(b, qs, s, st, push)
		active = keep
	}
	var smallest []int32 // the kk smallest live ids, once a zero query needs them
	for t := range heaps {
		origID, qlen := qs.ids[lo+t], qs.lens[lo+t]
		var row []retrieval.Entry
		if qlen == 0 {
			if c.canceled() {
				return
			}
			if smallest == nil {
				smallest = ix.LiveIDs()[:kk]
			}
			row = zeroQueryRow(int(origID), smallest)
		} else {
			items := heaps[t].Items()
			row = make([]retrieval.Entry, len(items))
			for j, it := range items {
				row[j] = retrieval.Entry{Query: int(origID), Probe: it.ID, Value: it.Value}
			}
		}
		st.Results += int64(len(row))
		out[origID] = row
	}
}

// zeroQueryRow answers a zero-length query: every product is 0, so its row
// is the k smallest live ids, naive's row under the heap's tie rule.
func zeroQueryRow(origID int, smallest []int32) []retrieval.Entry {
	row := make([]retrieval.Entry, len(smallest))
	for j, id := range smallest {
		row[j] = retrieval.Entry{Query: origID, Probe: int(id)}
	}
	return row
}
