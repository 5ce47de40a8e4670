package server

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"lemp"
	"lemp/internal/obs"
)

// BatchMode is NewBatcher's ignored mode argument. It and
// BatchModeContinuous are kept only because the benchmark/ module's traced
// replay passes them; its next refresh deletes both.
type BatchMode int

// BatchModeContinuous is the one BatchMode value (see BatchMode).
const BatchModeContinuous BatchMode = 0

// Batcher is the serving stack's door to retrieval. It refuses a bad k, θ or
// submission shape, counts the request's query rows in flight, and runs the
// request as one View.retrieve call on the caller's goroutine, under the
// caller's context (a cancellation aborts the index scan directly) and into
// the caller's trace.
//
// Requests are never coalesced. LEMP answers a query matrix bucket by bucket,
// so one bucket read could serve many requests, but a tile of coalesced rows
// is not cheaper per row than its rows alone, and holding a request back for
// a batch only made it wait. A multi-row request still reaches the index as
// one matrix. The type keeps its name because the benchmark/ module calls
// NewBatcher, TopKAt and AboveThetaAt.
type Batcher struct {
	sharded *Sharded

	// onDispatch, if set, observes every retrieval call's row count before
	// it runs, with its rows already counted in flight. Tests use it to
	// hold a retrieval.
	onDispatch func(rows int)

	// batchRowsHist observes each retrieval call's row count; wired by the
	// server, nil for library use.
	batchRowsHist *obs.Histogram

	// inFlight counts the query rows of submitted requests not yet
	// answered: the queue depth the server sheds on.
	inFlight atomic.Int64
}

// RowsInFlight returns the number of query rows of submitted requests whose
// retrieval has not returned yet.
func (b *Batcher) RowsInFlight() int64 { return b.inFlight.Load() }

// batchKey is one retrieval call's problem: the kind plus its parameter.
// Rows of a query matrix share one k or θ.
type batchKey struct {
	topk  bool
	k     int
	theta float64
}

// check is the serving stack's one k/θ refusal. θ's test is written !(θ > 0),
// not θ <= 0, so that NaN is refused — every comparison with NaN is false,
// and a NaN θ would poison the bucket-pruning bounds.
func (key batchKey) check() error {
	switch {
	case key.topk && key.k < 1:
		return fmt.Errorf("k must be positive, got %d", key.k)
	case !key.topk && (!(key.theta > 0) || math.IsInf(key.theta, 1)):
		return fmt.Errorf("theta must be a positive finite number, got %v", key.theta)
	}
	return nil
}

// NewBatcher returns the retrieval door over a server's index. The window,
// maxBatch and mode arguments are ignored (nothing coalesces); they are kept
// only because the benchmark/ module passes them, and its next refresh
// deletes them.
func NewBatcher(sh *Sharded, _ time.Duration, _ int, _ BatchMode) *Batcher {
	return &Batcher{sharded: sh}
}

// TopKAt runs one request's query rows (concatenated vectors of dimension R)
// as a Row-Top-k retrieval on the caller's epoch snapshot. The returned rows
// parallel the submitted queries, and the stats are the call's core stats.
// It is kept for the benchmark/ module, whose next refresh drops it.
func (b *Batcher) TopKAt(ctx context.Context, v *View, data []float64, rows, k int) ([][]lemp.Entry, lemp.Stats, error) {
	return b.submit(ctx, batchKey{topk: true, k: k}, v, data, rows)
}

// AboveThetaAt is TopKAt for Above-θ retrieval.
func (b *Batcher) AboveThetaAt(ctx context.Context, v *View, data []float64, rows int, theta float64) ([][]lemp.Entry, lemp.Stats, error) {
	return b.submit(ctx, batchKey{theta: theta}, v, data, rows)
}

// submit is the one request path: refuse a bad parameter or shape, then
// retrieve the request's rows as one matrix on v, counted in flight until
// the call returns.
func (b *Batcher) submit(ctx context.Context, key batchKey, v *View, data []float64, rows int) ([][]lemp.Entry, lemp.Stats, error) {
	if err := key.check(); err != nil {
		return nil, lemp.Stats{}, fmt.Errorf("server: %w", err)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if rows == 0 {
		return nil, lemp.Stats{}, nil
	}
	q, err := lemp.MatrixFromData(b.sharded.R(), rows, data)
	if err != nil {
		return nil, lemp.Stats{}, fmt.Errorf("server: batch submission of %d rows of dimension %d: %w", rows, b.sharded.R(), err)
	}
	b.inFlight.Add(int64(rows))
	defer b.inFlight.Add(-int64(rows))
	if b.onDispatch != nil {
		b.onDispatch(rows)
	}
	b.batchRowsHist.Observe(float64(rows))
	return v.retrieve(ctx, q, key)
}
