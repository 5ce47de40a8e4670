package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"lemp/internal/matrix"
	"lemp/internal/retrieval"
)

// The retrieval executor, the one caller of the scan of scan.go. Every
// retrieval — a one-shot call, a server request, a bulk panel — is a Job run
// over a query matrix, and this file holds the only copy of what surrounds
// the scan: input checks, option resolution, the §4.4 fit, the tune/scan
// phase spans and the cancellation epilogue.

// Problem is what a retrieval computes, as a value: K ≥ 1 selects Row-Top-k
// (the paper's Problem 2: every query's K largest products), K = 0 selects
// Above-θ at Theta (Problem 1: every product ≥ Theta). Exactly one of the
// two is set in a valid Problem.
type Problem struct {
	K     int
	Theta float64
}

// Validate is the one k/θ check: k at least 1, or θ a positive finite
// number, and not both. Every core entry point and FromState refuse a
// Problem through it before any tuning or scan work starts.
func (p Problem) Validate() error {
	switch {
	case p.K != 0 && p.Theta != 0:
		return fmt.Errorf("core: both k (%d) and theta (%v) set: a problem is either Row-Top-k or Above-θ", p.K, p.Theta)
	case p.K < 0:
		return fmt.Errorf("core: k must be positive, got %d", p.K)
	case p.K > 0, p.Theta > 0 && !math.IsInf(p.Theta, 1):
		return nil
	case p.Theta == 0:
		return fmt.Errorf("core: k must be positive or theta must be a positive finite number, got neither")
	}
	return fmt.Errorf("core: theta must be a positive finite number, got %v", p.Theta)
}

// Job is one retrieval problem bound to one index under resolved options:
// the handle every retrieval runs through. Options are validated once, in
// NewJob, and the first run to arrive fits the per-bucket parameters of
// §4.4 on its own queries for the whole job — every later run reuses the
// fit, so a million-row job cut into panels tunes exactly once.
//
// Run calls may execute concurrently on one Job — the bulk engine hands each
// worker its own panels — and beside any other retrieval on the index (see
// Index). Each Run scans single-threaded — parallelism across runs is the
// caller's — and the job's Parallelism sizes the one tuning pass: while the
// first panel tunes, the job's other workers can only wait for the fit, so
// the pass fans its sample queries and sorted-list builds out itself. The
// index must not be mutated while a Job is in use.
type Job struct {
	ix    *Index
	prob  Problem
	opts  Options
	cache *TuningCache
	gen   CandidateGen

	tuned  atomic.Bool  // fast path: fit is set
	tuneMu sync.Mutex   // serializes the one tuning pass
	fit    []tunedParam // the job's one fit, written once before tuned is set
}

// NewJob validates the problem and resolves the per-call options against
// the index's build-time ones. It does no retrieval work.
func (ix *Index) NewJob(p Problem, ro RunOptions) (*Job, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts, err := ix.effOptions(ro)
	if err != nil {
		return nil, err
	}
	return &Job{ix: ix, prob: p, opts: opts, cache: ro.Cache, gen: ro.Gen}, nil
}

// Retrieve answers one problem for one query matrix: NewJob plus one run
// that spends the call's Parallelism on the scan as well as on tuning.
//
// A Row-Top-k problem returns one row per query — its K probes with the
// largest products by decreasing value, fewer when the index holds fewer
// live probes, ties broken arbitrarily — and takes a nil sink. An Above-θ
// problem streams every entry ≥ Theta to sink, in unspecified order, never
// from two goroutines at once, and returns nil rows.
//
// The context is polled at every (bucket, query) boundary, in the tuning
// sample and in every worker: a canceled call returns ctx.Err() within one
// bucket's work per worker, returns no rows, publishes no partial fit and
// leaves the index fully reusable. Entries already streamed to an Above-θ
// sink stay delivered; callers that must not observe partial output collect
// and discard on error.
func (ix *Index) Retrieve(ctx context.Context, q *matrix.Matrix, p Problem, sink retrieval.Sink, ro RunOptions) (rows retrieval.TopK, st Stats, err error) {
	j, err := ix.NewJob(p, ro)
	if err != nil {
		return nil, st, err
	}
	rows, err = j.run(ctx, q, sink, j.opts.Parallelism, &st)
	return rows, st, err
}

// Run answers one query panel of the job, single-threaded. Row i of a
// Row-Top-k result, and Entry.Query of an Above-θ entry, is the panel-local
// row index; per-row answers do not depend on how a query matrix is cut
// into panels. An Above-θ row's entry SET is exact and so identical across
// jobs, but the emit ORDER follows the fitted per-bucket method's candidate
// order, which may differ between jobs (each fits on its own first panel):
// consumers needing stable bytes canonicalize row order themselves.
func (j *Job) Run(ctx context.Context, q *matrix.Matrix, sink retrieval.Sink) (rows retrieval.TopK, st Stats, err error) {
	rows, err = j.run(ctx, q, sink, 1, &st)
	return rows, st, err
}

// checkDim refuses a query matrix of the wrong dimension.
func (ix *Index) checkDim(q *matrix.Matrix) error {
	if q.R() != ix.r {
		return fmt.Errorf("core: query dimension %d does not match index dimension %d", q.R(), ix.r)
	}
	return nil
}

// run is the executor: every retrieval passes through it once. The loop
// nest below it is §3.2's for both problems — probe bucket outside, queries
// inside — and the sorted queries reach it in tiles (scan.go states the one
// tile rule). Per-row results and all counters are independent of the
// tiling.
//
// The caller's Stats are filled in place instead of being returned by value
// through every level: a call may run on a fresh goroutine (a server's
// request handler), whose 2 KB stack grows by copying, and with 150-byte
// Stats copies in the frames of Retrieve and run the path down to the
// verification kernels crossed one more doubling than the drivers it
// replaces — measured at 3.5 µs per call, a tenth of a request on a skewed
// catalog.
func (j *Job) run(ctx context.Context, q *matrix.Matrix, sink retrieval.Sink, workers int, st *Stats) (retrieval.TopK, error) {
	ix, p := j.ix, j.prob
	if err := ix.checkDim(q); err != nil {
		return nil, err
	}
	if (sink == nil) != (p.K > 0) {
		return nil, fmt.Errorf("core: Row-Top-k returns rows and takes a nil sink, Above-θ needs one (k=%d, sink set: %v)", p.K, sink != nil)
	}
	qs, err := prepareQueries(q)
	if err != nil {
		return nil, err
	}
	c := newCall(ctx, j.opts, j.cache)
	c.gen = j.gen
	*st = Stats{Queries: q.N()}
	var out retrieval.TopK
	if p.K > 0 {
		out = make(retrieval.TopK, q.N())
	}
	tuneSpan := c.startSpan("tune")
	err = j.ensureTuned(c, qs, st)
	c.endSpan(tuneSpan)
	if err != nil {
		return nil, err
	}
	c.fit = j.fit
	scanSpan := c.startSpan("scan")
	start := time.Now()
	ix.scanTiles(c, p, qs, workers, out, sink, st)
	st.RetrievalTime = time.Since(start)
	c.endSpan(scanSpan)
	if c.canceled() {
		return nil, c.ctxErr()
	}
	return out, nil
}

// ensureTuned makes the job's one fit, with the first run's queries as the
// sample, under the job's lock so concurrent first runs make it once. The
// only failure is a canceled context, which leaves the job without a fit: the
// next run tunes.
func (j *Job) ensureTuned(c *call, qs *querySet, st *Stats) error {
	if j.tuned.Load() {
		return nil
	}
	j.tuneMu.Lock()
	defer j.tuneMu.Unlock()
	if j.tuned.Load() {
		return nil
	}
	fit, err := j.ix.ensureTuned(c, qs, j.prob, st)
	if err != nil {
		return err
	}
	j.fit = fit
	j.tuned.Store(true)
	return nil
}
