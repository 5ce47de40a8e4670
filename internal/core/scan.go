package core

import (
	"math"
	"sync"

	"lemp/internal/quant"
	"lemp/internal/retrieval"
	"lemp/internal/topk"
)

// The scan under the executor (executor.go): §3.2's loop nest, one tile
// kernel for both problems. Probe buckets (small, cache-resident) are the
// outer loop and a tile's queries the inner one, so a bucket and its sorted
// lists are read from memory once per tile, not once per query. Each query
// brings a cut θ to every bucket: the problem's θ for Above-θ, its heap's
// running k-th best value θ′ for Row-Top-k (§4.5, −∞ until the heap is
// full). A pair is pruned where θ/(‖q‖·l_b) exceeds 1 (localThreshold); a
// pruned query leaves the tile's active list, since every later bucket is
// shorter. Only where a verified value goes (report) and each problem's
// setup and finish differ. The kernel polls the call's context once per
// (bucket, query) pair, so cancellation costs at most one bucket of work
// per worker.
//
// # Tiles
//
// A tile carries at most tileMaxRows queries: enough that a bucket and its
// sorted lists are shared by many queries, few enough that the tile's
// directions, heaps and quantized codes stay cache-resident beside the
// bucket. It equals the bulk engine's default panel height, so a default
// panel is one tile. The heaps are part of that working set, so a large k
// shrinks the tile: together they hold at most tileMaxItems entries (16
// bytes each, 1 MB). A serial call, a bulk panel through Job.Run included,
// cuts its queries into tiles of that size. A parallel call cuts about
// eight tiles per worker, so that a straggler tile delays only itself, but
// none below blockRows rows, one full block of screens, while it has that
// many, and runs on at most one goroutine per tile.
//
// # Blocked screens
//
// A pair whose candidates are a prefix of the bucket (LENGTH, the
// whole-bucket fallback; a tombstone does not end a prefix) and whose screen
// is on (sidecarFor) is not screened at once: step parks it in the scratch's
// quant.Block, and flushBlock screens up to four such pairs of the bucket in
// one pass (the VNNI block kernel loads each row chunk once for all four)
// and then verifies and reports them one by one, in the order they were
// queued, dropping tombstoned survivors as it verifies. The block flushes
// when it is full, before any pair that cannot be queued, at the end of the
// bucket, and at once in a one-query walk, so pairs are reported in the
// order a one-pair path would report them. Batching changes nothing a query
// sees: its threshold moves only on its own pushes, which follow its own
// verification, and its screen, survivors and counters are those of a block
// of one.

// Tile sizes (see "Tiles" above).
const (
	tileMaxRows  = 256
	tileMaxItems = 1 << 16
	blockRows    = 4
)

// tiling is the one tile rule: a call over n sorted queries on up to
// workers goroutines, kk being the heap size (0 for Above-θ), answers tiles
// [i·rows, min((i+1)·rows, n)) for i < tiles.
func tiling(n, workers, kk int) (rows, tiles int) {
	rows = min(tileMaxRows, max(1, tileMaxItems/max(kk, 1)))
	if workers > 1 {
		rows = min(rows, max(blockRows, n/(8*workers)))
	}
	return rows, (n + rows - 1) / rows
}

// scanTiles answers every sorted query of qs, tile by tile: on the caller's
// goroutine when the call has one worker or one tile, otherwise on
// min(workers, tiles) goroutines (spreadScratch), each with its own pooled
// scratch — the tile's heaps included — and its own Stats, folded into st at
// the end. Output rows are disjoint, so only an Above-θ sink locks.
func (ix *Index) scanTiles(c *call, p Problem, qs *querySet, workers int, out retrieval.TopK, sink retrieval.Sink, st *Stats) {
	n, kk := qs.n(), 0
	if p.K > 0 {
		if kk = min(p.K, ix.LiveN()); kk == 0 {
			st.PrunedPairs += int64(n) * int64(len(ix.scan)) // nothing to rank
			return
		}
	}
	rows, tiles := tiling(n, workers, kk)
	if workers = min(workers, tiles); workers <= 1 {
		s := ix.getScratch()
		for lo := 0; lo < n && !c.canceled(); lo += rows {
			ix.scanTile(c, p.Theta, kk, qs, lo, min(lo+rows, n), s, out, sink, st)
		}
		ix.putScratch(s)
		return
	}
	emit := sink
	if sink != nil {
		var mu sync.Mutex
		emit = func(e retrieval.Entry) {
			mu.Lock()
			sink(e)
			mu.Unlock()
		}
	}
	stats := make([]Stats, workers)
	ix.spreadScratch(tiles, workers, func(s *scratch, w, i int) {
		if lo := i * rows; !c.canceled() {
			ix.scanTile(c, p.Theta, kk, qs, lo, min(lo+rows, n), s, out, emit, &stats[w])
		}
	})
	for w := range stats {
		st.Add(stats[w])
	}
}

// localThreshold returns what a query of length qlen > 0 bringing cut theta
// meets at a bucket of longest length lb: the local threshold
// θ_b = θ/(‖q‖·l_b), −∞ while theta is, and whether it prunes the bucket,
// and with it every later one (line 13 of Algorithm 1). limit is 1 plus the
// index's slack (boundSlack). A bucket of zero-length probes, whose products
// are 0, gets θ_b = −1 and is pruned by any positive cut.
func localThreshold(theta, qlen, lb, limit float64) (thetaB float64, pruned bool) {
	if lb == 0 {
		return -1, theta > 0
	}
	thetaB = theta / (qlen * lb)
	return thetaB, thetaB > limit
}

// heapFloor is a Row-Top-k query's running cut θ′: its heap's k-th best
// value, −∞ until the heap is full — so the first bucket, which holds the
// longest vectors, is scanned fully and plays the role of the paper's "k
// longest vectors" seed.
func heapFloor(h *topk.Heap) float64 {
	if thr, ok := h.Threshold(); ok {
		return thr
	}
	return math.Inf(-1)
}

// scanTile is the tile kernel, for sorted queries [lo, hi): with kk = 0 it
// emits every product ≥ theta to sink, with kk > 0 it ranks each query's
// top kk into its row of out. Every query keeps its own cut and still meets
// the buckets in decreasing-l_b order, so its candidates, its answer and
// every counter equal a one-query scan's. What a query needs in every bucket
// it meets (its quantized codes) is derived once and kept per tile row.
// PrunedPairs counts every (query, bucket) pair of the tile not processed,
// a zero-length query's included.
func (ix *Index) scanTile(c *call, theta float64, kk int, qs *querySet, lo, hi int, s *scratch, out retrieval.TopK, sink retrieval.Sink, st *Stats) {
	n := hi - lo
	s.beginTile(lo, n)
	var heaps []topk.Heap
	if kk > 0 {
		if cap(s.heaps) < n {
			s.heaps = make([]topk.Heap, n)
		}
		heaps = s.heaps[:n]
		for t := range heaps {
			heaps[t].Init(kk)
		}
	}
	active := s.active[:0]
	for t := range n {
		if qs.lens[lo+t] != 0 { // zero-length queries scan nothing
			active = append(active, int32(t))
		}
	}
	s.active = active // keep the grown storage pooled
	report := func(b *bucket, qi int32) {
		if kk > 0 {
			heap := &heaps[int(qi)-lo]
			for i, v := range s.vals {
				heap.Push(int(b.ids[s.lid(i)]), v)
			}
			return
		}
		origID := int(qs.ids[qi])
		for i, v := range s.vals {
			if v >= theta {
				st.Results++
				sink(retrieval.Entry{Query: origID, Probe: int(b.ids[s.lid(i)]), Value: v})
			}
		}
	}
	before := st.ProcessedPairs
	for bi, b := range ix.scan {
		if len(active) == 0 {
			break
		}
		keep := active[:0]
		for _, t := range active {
			if c.canceled() {
				return
			}
			qi, cut := lo+int(t), theta
			if kk > 0 {
				cut = heapFloor(&heaps[t])
			}
			thetaB, pruned := localThreshold(cut, qs.lens[qi], b.lb, 1+ix.slack)
			if pruned {
				continue
			}
			keep = append(keep, t)
			st.ProcessedPairs++
			ix.gather(c, bi, int32(qi), qs.dir(qi), qs.lens[qi], cut, thetaB, s)
			// A cut of −Inf screens nothing; the screen keeps every value
			// equal to the cut, which Push may still take on a smaller id.
			ix.step(bi, qs, s, int32(qi), cut, st, report)
		}
		ix.flushBlock(bi, qs, s, st, report)
		active = keep
	}
	st.PrunedPairs += int64(n)*int64(len(ix.scan)) - (st.ProcessedPairs - before)
	if kk == 0 {
		return
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

// blockPair is a pair queued in the scratch's block: its sorted query and
// its prefix length.
type blockPair struct {
	qi int32
	n  int
}

// step is the per-pair step (line 16 of Algorithm 1) of the tile kernel and
// of the tuner's trajectory and measurements, so §4.4 fits the cost a scan
// pays. For sorted query qi at scan bucket bi, once gather has left the
// pair's candidates in s.cand, it counts them, screens them as generated,
// tombstones included, against cut — θ, or the current heap floor — where
// sidecarFor says the pair is screened, has verifyDots drop the tombstoned
// survivors and compute the rest's values fl(qᵀp) from the raw query row
// into s.vals, and calls report with the query. A screened prefix is queued
// in s.blk instead and reported when the block flushes ("Blocked screens"
// above); the caller flushes at the end of the bucket. The dots are
// accumulated in vecmath's canonical order (vecmath/kernels.go) whichever
// kernel computes them, so a candidate's value depends neither on the
// candidates it is verified with nor on the tile its query rides in.
func (ix *Index) step(bi int, qs *querySet, s *scratch, qi int32, cut float64, st *Stats, report func(b *bucket, qi int32)) {
	st.Candidates += int64(len(s.cand))
	b, qrow := ix.scan[bi], qs.row(int(qi))
	var qq quant.Query
	q8 := ix.sidecarFor(b, len(s.cand), cut)
	ok := q8 != nil
	if ok {
		qq, ok = s.quantQuery(qi, qrow)
	}
	if ok && s.prefix {
		j := s.blk.Len()
		if s.blkRows[j] == nil {
			s.blkRows[j] = make([]int32, s.maxBucket)
		}
		s.blkPairs[j] = blockPair{qi: qi, n: len(s.cand)}
		if s.blk.Add(q8.NewScreen(qq, 1), len(s.cand), cut) || len(s.tileHave) == 1 {
			ix.flushBlock(bi, qs, s, st, report)
		}
		return
	}
	ix.flushBlock(bi, qs, s, st, report)
	if ok {
		c, scr := len(s.cand), q8.NewScreen(qq, 1)
		k := scr.List(s.cand, cut)
		st.QuantScreened += int64(c - k)
		st.QuantSurvived += int64(k)
		s.dropTo(k)
	}
	ix.verifyDots(bi, qrow, s, st)
	report(b, qi)
}

// flushBlock screens the pairs queued in s.blk in one block pass and then,
// pair by pair in queue order, verifies the pair's survivors into s.vals and
// calls report with its query. The candidates in s.cand, a pair not yet
// verified, are kept.
func (ix *Index) flushBlock(bi int, qs *querySet, s *scratch, st *Stats, report func(b *bucket, qi int32)) {
	m := s.blk.Len()
	if m == 0 {
		return
	}
	b, k := ix.scan[bi], s.blk.Run(&s.blkRows)
	s.blk.Reset()
	cand, prefix := s.cand, s.prefix
	for j, p := range s.blkPairs[:m] {
		st.QuantScreened += int64(p.n - k[j])
		st.QuantSurvived += int64(k[j])
		s.cand, s.prefix = s.blkRows[j][:k[j]], k[j] == p.n
		ix.verifyDots(bi, qs.row(int(p.qi)), s, st)
		report(b, p.qi)
	}
	s.cand, s.prefix = cand, prefix
}
