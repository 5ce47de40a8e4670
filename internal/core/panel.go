package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"lemp/internal/matrix"
	"lemp/internal/retrieval"
)

// PanelRun is the bulk engine's retrieval entry point: one job-scoped
// handle answering many small query panels against one index. The
// per-call costs RowTopKCtx pays on every invocation — option validation
// and, above all, the sample-tuning pass — are hoisted to the job: options
// validate once in NewPanelRun, and the first panel to arrive tunes the
// index for the whole job (every later panel reuses the fit, so a
// million-row job tunes exactly once).
//
// The job's Parallelism (RunOptions, else the index's) is spent on that
// preparation only: while the first panel tunes, the job's other workers
// can do nothing but wait for the fit, so the tuning pass fans its sample
// queries and its sorted-list builds out over the job's parallelism
// itself. Panel scans stay single-threaded — parallelism across panels is
// the caller's.
//
// Unlike the Index-level drivers, panel calls MAY run concurrently on one
// PanelRun — that is their point: the bulk engine hands each worker its
// own panels. This is safe only because a PanelRun never mutates shared
// index state after tuning: the tuning pass is serialized under the job
// mutex before any concurrent scan starts, lazily built per-bucket
// indexes and the BLSH table are sync.Once-guarded (and counted through an
// atomic flag), and every worker owns pooled scratch. The index must not be
// mutated (Apply/Compact) while a PanelRun is live — the usual Index
// contract, job-wide.
type PanelRun struct {
	ix    *Index
	opts  Options
	cache *TuningCache
	prob  any // tuneTopK or tuneAbove
	k     int
	theta float64
	topk  bool

	tuned   atomic.Bool // fast path: tuning already fitted for this job
	tuneMu  sync.Mutex  // serializes the one tuning pass
	tuneErr error       // sticky error from a failed (non-canceled) fit
}

// NewPanelRunTopK prepares a Row-Top-k panel job. RunOptions carry the
// usual per-call policy (algorithm override, tuning cache); Parallelism
// sizes the job's one tuning pass and nothing else — each panel call scans
// single-threaded, parallelism across panels is the caller's concern.
func (ix *Index) NewPanelRunTopK(k int, ro RunOptions) (*PanelRun, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	pr, err := ix.newPanelRun(ro)
	if err != nil {
		return nil, err
	}
	pr.topk, pr.k, pr.prob = true, k, tuneTopK{k: k}
	return pr, nil
}

// NewPanelRunAbove prepares an Above-θ panel job.
func (ix *Index) NewPanelRunAbove(theta float64, ro RunOptions) (*PanelRun, error) {
	if !(theta > 0) || math.IsInf(theta, 0) {
		return nil, fmt.Errorf("core: theta must be a positive finite number, got %v", theta)
	}
	pr, err := ix.newPanelRun(ro)
	if err != nil {
		return nil, err
	}
	pr.theta, pr.prob = theta, tuneAbove{theta: theta}
	return pr, nil
}

func (ix *Index) newPanelRun(ro RunOptions) (*PanelRun, error) {
	opts, err := ix.effOptions(ro)
	if err != nil {
		return nil, err
	}
	return &PanelRun{ix: ix, opts: opts, cache: ro.Cache}, nil
}

// ensureTunedOnce runs the job's single tuning pass using the first
// panel's queries as the sample, serialized so concurrent first panels
// cannot race on the per-bucket (t_b, φ_b) fields. A canceled fit is
// retried by the next panel; any other failure is sticky.
func (pr *PanelRun) ensureTunedOnce(c *call, qs *querySet, st *Stats) error {
	if pr.tuned.Load() {
		return nil
	}
	pr.tuneMu.Lock()
	defer pr.tuneMu.Unlock()
	if pr.tuned.Load() {
		return nil
	}
	if pr.tuneErr != nil {
		return pr.tuneErr
	}
	if err := pr.ix.ensureTuned(c, qs, pr.prob, st); err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			pr.tuneErr = err
		}
		return err
	}
	pr.tuned.Store(true)
	return nil
}

// TopKPanel answers one query panel: row i of the result is panel row i's
// top-k probes by decreasing value, exactly as RowTopKCtx would return for
// that row in a full-matrix call (per-row answers are independent of how
// the query matrix is cut into panels). The panel is sorted by query
// length internally, like every retrieval call.
func (pr *PanelRun) TopKPanel(ctx context.Context, q *matrix.Matrix) (retrieval.TopK, Stats, error) {
	if !pr.topk {
		return nil, Stats{}, fmt.Errorf("core: TopKPanel on an Above-θ PanelRun")
	}
	if q.R() != pr.ix.r {
		return nil, Stats{}, fmt.Errorf("core: query dimension %d does not match index dimension %d", q.R(), pr.ix.r)
	}
	ix := pr.ix
	c := newCall(ctx, pr.opts, pr.cache)
	st := Stats{Queries: q.N(), Buckets: len(ix.scan), PrepTime: ix.prepTime}
	out := make(retrieval.TopK, q.N())
	qs := prepareQueries(q)
	if err := pr.ensureTunedOnce(c, qs, &st); err != nil {
		return nil, st, err
	}
	start := time.Now()
	s := ix.getScratch()
	ix.topkWorker(c, qs, 0, qs.n(), pr.k, s, out, &st)
	ix.putScratch(s)
	st.RetrievalTime = time.Since(start)
	ix.countIndexedBuckets(&st)
	if c.canceled() {
		return nil, st, c.ctxErr()
	}
	return out, st, nil
}

// AbovePanel answers one query panel in Above-θ mode, streaming entries to
// emit. Entry.Query is the panel-local row index; emit is called from this
// goroutine only. The emitted SET per row is exact and therefore identical
// across jobs, but the emit ORDER follows the tuned per-bucket algorithm's
// candidate order, which may differ between job instances (tuning samples
// the job's first panel) — consumers needing stable bytes, like the bulk
// result writer, must canonicalize row order themselves.
func (pr *PanelRun) AbovePanel(ctx context.Context, q *matrix.Matrix, emit retrieval.Sink) (Stats, error) {
	if pr.topk {
		return Stats{}, fmt.Errorf("core: AbovePanel on a Row-Top-k PanelRun")
	}
	if q.R() != pr.ix.r {
		return Stats{}, fmt.Errorf("core: query dimension %d does not match index dimension %d", q.R(), pr.ix.r)
	}
	ix := pr.ix
	c := newCall(ctx, pr.opts, pr.cache)
	st := Stats{Queries: q.N(), Buckets: len(ix.scan), PrepTime: ix.prepTime}
	qs := prepareQueries(q)
	if err := pr.ensureTunedOnce(c, qs, &st); err != nil {
		return st, err
	}
	start := time.Now()
	s := ix.getScratch()
	ix.aboveWorker(c, qs, 0, qs.n(), pr.theta, s, emit, &st)
	ix.putScratch(s)
	st.RetrievalTime = time.Since(start)
	ix.countIndexedBuckets(&st)
	if c.canceled() {
		return st, c.ctxErr()
	}
	return st, nil
}

// K returns the job's k (0 for Above-θ jobs).
func (pr *PanelRun) K() int { return pr.k }

// Theta returns the job's θ (0 for Row-Top-k jobs).
func (pr *PanelRun) Theta() float64 { return pr.theta }

// LiveTopK clamps k to the number of live probes, the row length TopKPanel
// actually returns.
func (pr *PanelRun) LiveTopK() int {
	if live := pr.ix.LiveN(); pr.k > live {
		return live
	}
	return pr.k
}
