package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lemp/internal/matrix"
	"lemp/internal/retrieval"
	"lemp/internal/vecmath"
)

// AboveTheta retrieves every entry of QᵀP with value ≥ theta (Problem 1)
// and streams it to emit. It is AboveThetaCtx with a background context and
// the index's build-time options.
func (ix *Index) AboveTheta(q *matrix.Matrix, theta float64, emit retrieval.Sink) (Stats, error) {
	return ix.AboveThetaCtx(context.Background(), q, theta, emit, RunOptions{})
}

// AboveThetaCtx is the context-aware Above-θ driver with per-call execution
// overrides. theta must be positive, as in the paper's problem statement.
// The entry order is unspecified.
//
// The loop structure follows §3.2: probe buckets (small, cache-resident) in
// the outer loop, queries in decreasing-length order in the inner loop, so
// a query whose local threshold exceeds 1 ends the inner loop — every later
// query is shorter — and a bucket whose longest query is pruned ends the
// whole run — every later bucket is shorter too.
//
// The context is polled at every (bucket, query) boundary: a canceled call
// stops emitting within one bucket's work per worker and returns ctx.Err();
// entries already streamed to emit stay delivered (callers that must not
// observe partial output should collect and discard on error). The index
// stays fully reusable after a cancellation.
func (ix *Index) AboveThetaCtx(ctx context.Context, q *matrix.Matrix, theta float64, emit retrieval.Sink, ro RunOptions) (Stats, error) {
	if q.R() != ix.r {
		return Stats{}, fmt.Errorf("core: query dimension %d does not match index dimension %d", q.R(), ix.r)
	}
	if !(theta > 0) {
		return Stats{}, fmt.Errorf("core: theta must be positive, got %v", theta)
	}
	opts, err := ix.effOptions(ro)
	if err != nil {
		return Stats{}, err
	}
	c := newCall(ctx, opts, ro.Cache)
	st := Stats{Queries: q.N(), Buckets: len(ix.scan), PrepTime: ix.prepTime}
	qs := prepareQueries(q)
	tuneSpan := c.startSpan("tune")
	if err := ix.ensureTuned(c, qs, tuneAbove{theta: theta}, &st); err != nil {
		c.endSpan(tuneSpan)
		return st, err
	}
	c.endSpan(tuneSpan)
	scanSpan := c.startSpan("scan")
	start := time.Now()
	if c.opts.Parallelism == 1 || qs.n() < 2*c.opts.Parallelism {
		s := ix.getScratch()
		ix.aboveWorker(c, qs, 0, qs.n(), theta, s, emit, &st)
		ix.putScratch(s)
	} else {
		var mu sync.Mutex
		lockedEmit := func(e retrieval.Entry) {
			mu.Lock()
			emit(e)
			mu.Unlock()
		}
		// Dynamic tile claiming, as in RowTopKCtx: pre-cut chunks pay a
		// straggler tax when candidate mass concentrates on a few
		// queries (tiles.go). Entry order across workers is unspecified
		// either way.
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
					ix.aboveWorker(c, qs, lo, hi, theta, s, lockedEmit, &stats[w])
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
		return st, c.ctxErr()
	}
	return st, nil
}

// aboveWorker processes queries [lo, hi) of the sorted query set against
// all buckets, polling the call's context once per (bucket, query) pair.
// The scan loop carries the bucket position bi, so the early-exit pruning
// statistic is O(1) instead of a slice walk re-locating the bucket. The
// range is one scratch tile: what a query needs in every bucket it meets
// (quantized codes, BLSH signature) is derived once and kept per row.
func (ix *Index) aboveWorker(c *call, qs *querySet, lo, hi int, theta float64, s *scratch, emit retrieval.Sink, st *Stats) {
	nq := int64(hi - lo)
	s.beginTile(lo, hi-lo)
	for bi, b := range ix.scan {
		// θ_b(q) = θ/(‖q‖·l_b); for l_b = 0 this is +Inf and the
		// bucket (zero vectors only) is pruned for every query.
		var l2T0 float64
		if c.opts.Algorithm == AlgL2AP && qs.n() > 0 && b.lb > 0 && qs.lens[0] > 0 {
			l2T0 = vecmath.Clamp(theta/(qs.lens[0]*b.lb), 0, 1)
		}
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
			if thetaB > 1 {
				break // every later query is shorter (line 13)
			}
			processed++
			qdir := qs.dir(qi)
			alg, phi := ix.resolve(c.opts, b, thetaB)
			ix.gather(b, alg, phi, int32(qi), qdir, qlen, theta, thetaB, l2T0, s)
			ix.verifyAbove(b, int32(qi), qdir, qlen, theta, qs.ids[qi], s, emit, st)
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
