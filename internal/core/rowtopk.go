package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"lemp/internal/matrix"
	"lemp/internal/retrieval"
	"lemp/internal/topk"
)

// RowTopK retrieves, for every query vector, the k probe vectors with the
// largest inner products (Problem 2; fewer when P holds fewer than k
// vectors). Ties are broken arbitrarily. It is RowTopKCtx with a background
// context and the index's build-time options.
func (ix *Index) RowTopK(q *matrix.Matrix, k int) (retrieval.TopK, Stats, error) {
	return ix.RowTopKCtx(context.Background(), q, k, RunOptions{})
}

// RowTopKCtx is the context-aware Row-Top-k driver with per-call execution
// overrides.
//
// Per §4.5, each query runs Above-θ′ bucket by bucket in decreasing-length
// order with a running lower bound θ′ — the current k-th best value —
// starting unseeded (θ′ = -Inf, so the first bucket, which holds the
// longest vectors, is scanned fully and plays the role of the paper's
// "k longest vectors" seed). The query's length is irrelevant to the
// ranking, so the search runs on the unit direction (‖q‖ = 1) and values
// are rescaled at the end.
//
// The loop nest is §3.2's, shared with Above-θ: queries are cut into tiles
// (topkTile), and within a tile the probe bucket is the outer loop and the
// tile's queries the inner one, each query carrying its own heap and θ′ —
// a cache-sized bucket and its sorted lists are read once per tile, not
// once per query. Per-row results and all counters are independent of the
// tiling.
//
// The context is checked at every (bucket, query) boundary, in the tuning
// sample and in every worker: a canceled call returns ctx.Err() within one
// bucket's work per worker and leaves the index fully reusable. No partial
// result is returned and no partial tuning fit is published.
func (ix *Index) RowTopKCtx(ctx context.Context, q *matrix.Matrix, k int, ro RunOptions) (retrieval.TopK, Stats, error) {
	if q.R() != ix.r {
		return nil, Stats{}, fmt.Errorf("core: query dimension %d does not match index dimension %d", q.R(), ix.r)
	}
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("core: k must be positive, got %d", k)
	}
	opts, err := ix.effOptions(ro)
	if err != nil {
		return nil, Stats{}, err
	}
	c := newCall(ctx, opts, ro.Cache)
	c.approx = ro.screenApprox
	st := Stats{Queries: q.N(), Buckets: len(ix.scan), PrepTime: ix.prepTime}
	out := make(retrieval.TopK, q.N())
	qs := prepareQueries(q)
	tuneSpan := c.startSpan("tune")
	if err := ix.ensureTuned(c, qs, tuneTopK{k: k}, &st); err != nil {
		c.endSpan(tuneSpan)
		return nil, st, err
	}
	c.endSpan(tuneSpan)
	scanSpan := c.startSpan("scan")
	start := time.Now()
	if c.opts.Parallelism == 1 || qs.n() < 2*c.opts.Parallelism {
		s := ix.getScratch()
		ix.topkWorker(c, qs, 0, qs.n(), k, s, out, &st)
		ix.putScratch(s)
	} else {
		// Workers claim query tiles from a shared cursor instead of
		// pre-cut chunks, so a straggler tile delays only itself
		// (tiles.go); each worker keeps one pooled scratch for all the
		// tiles it answers.
		workers := c.opts.Parallelism
		stats := make([]Stats, workers)
		cursor := newTileCursor(qs.n(), workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := ix.getScratch()
				defer ix.putScratch(s)
				for {
					lo, hi, ok := cursor.claim()
					if !ok || c.canceled() {
						return
					}
					ix.topkWorker(c, qs, lo, hi, k, s, out, &stats[w])
				}
			}(w)
		}
		wg.Wait()
		addWorkerStats(&st, stats)
	}
	st.RetrievalTime = time.Since(start)
	c.endSpan(scanSpan)
	ix.countIndexedBuckets(&st)
	if c.canceled() {
		return nil, st, c.ctxErr()
	}
	return out, st, nil
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

// topkWorker answers queries [lo, hi) of the sorted query set, tile by
// tile. Each worker owns its scratch — the tile's heaps included; output
// rows are disjoint, so no locking. The call's context is polled once per
// (bucket, query) pair, so cancellation costs at most one bucket of work
// per worker.
func (ix *Index) topkWorker(c *call, qs *querySet, lo, hi, k int, s *scratch, out retrieval.TopK, st *Stats) {
	live := ix.LiveN()
	if live == 0 {
		return
	}
	kk := min(k, live)
	rows := min(topkTileRows, max(1, topkTileItems/kk))
	for ; lo < hi && !c.canceled(); lo += rows {
		ix.topkTile(c, qs, lo, min(lo+rows, hi), kk, s, out, st)
	}
}

// topkTile runs the §3.2 loop nest for one tile of queries: probe buckets
// in the outer loop, the tile's still-active queries in the inner one, so a
// bucket is streamed from memory once per tile instead of once per query —
// the same order as aboveWorker. Every query keeps its own heap and running
// threshold θ′ and still meets the buckets in decreasing-l_b order, so its
// candidates, its result row and every counter equal a one-query scan's; a
// query leaves the active list at the first bucket its θ′ prunes
// (θ′/l_b > 1), which prunes every later bucket too. A single row is the
// degenerate one-query tile.
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
	negInf := math.Inf(-1)
	for _, b := range ix.scan {
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
			theta, thetaB := negInf, negInf
			if thr, ok := heap.Threshold(); ok {
				theta = thr
				if b.lb == 0 {
					// Zero-length probes: products are 0.
					if theta > 0 {
						st.PrunedPairs++
						continue
					}
					thetaB = -1
				} else {
					thetaB = theta / b.lb
					if thetaB > 1 {
						st.PrunedPairs++
						continue
					}
				}
			} else if b.lb == 0 {
				thetaB = -1
			}
			keep = append(keep, t)
			st.ProcessedPairs++
			qdir := qs.dir(qi)
			alg, phi := ix.resolve(c.opts, b, thetaB)
			ix.gather(b, alg, phi, int32(qi), qdir, 1, theta, thetaB, 0, s)
			st.Candidates += int64(len(s.cand))
			s.work += int64(len(s.cand)) * int64(ix.r)
			// Blocked verification (verify.go): drop tombstones, screen
			// against the current heap floor when a sidecar is active
			// (theta is -Inf until the heap fills, so nothing screens
			// before the seed; Push drops values ≤ floor, so strict-<
			// screening is byte-safe), compute the block dot products,
			// then apply the heap per block result. v = (q̄ᵀp̄)·‖p‖ with the
			// dot in vecmath's canonical order (vecmath/kernels.go), so the
			// tile a row rides in never changes its values; in Approx mode
			// v is the quantized estimate and the exact kernels are skipped.
			ix.compactLiveCands(b, s)
			if !ix.screenCands(b, s, int32(qi), qdir, 1, theta, c.approx, st) {
				verifyDots(b, qdir, s, st)
			}
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
			for cur[bi] < b.size() && ix.deadSkip(b, cur[bi]) {
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
