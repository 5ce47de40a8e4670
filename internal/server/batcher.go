package server

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"lemp"
	"lemp/internal/obs"
)

// BatchMode selects when a forming batch dispatches.
type BatchMode int

const (
	// BatchModeWindow is the classic micro-batcher: a forming batch always
	// waits out the full window (or fills to MaxBatch), even when the
	// index is idle. Maximizes coalescing at the cost of a fixed window of
	// added latency on every request.
	BatchModeWindow BatchMode = iota
	// BatchModeContinuous dispatches a forming batch the moment the key's
	// previous retrieval completes, with window and MaxBatch kept as upper
	// bounds, and a request on a key with no retrieval in flight retrieves
	// at once on its own goroutine. Low-load requests pay no window penalty
	// and high-load dispatches run back-to-back with zero idle gap,
	// coalescing exactly the requests that arrived during the previous
	// retrieval.
	BatchModeContinuous
)

// String returns the mode's flag spelling.
func (m BatchMode) String() string {
	if m == BatchModeContinuous {
		return "continuous"
	}
	return "window"
}

// ParseBatchMode parses a -batch-mode flag value. The empty string is the
// default, continuous.
func ParseBatchMode(s string) (BatchMode, error) {
	switch s {
	case "", "continuous":
		return BatchModeContinuous, nil
	case "window":
		return BatchModeWindow, nil
	}
	return 0, fmt.Errorf("server: unknown batch mode %q (want window or continuous)", s)
}

// Batcher coalesces concurrent retrieval requests into whole-matrix calls.
// LEMP's retrieval is batch-oriented — Row-Top-k and Above-θ take a query
// *matrix* — so serving one HTTP request per retrieval call wastes the
// amortization the paper's design invites. The batcher holds each incoming
// request for at most Window, merging every request with identical
// parameters (same k, or same θ) that arrives meanwhile into one query
// matrix; the combined batch is dispatched as a single sharded retrieval
// and the per-query result rows are scattered back to the waiting callers.
//
// Dispatch timing depends on the mode. In BatchModeWindow a batch
// dispatches when it reaches MaxBatch rows or when Window elapses after
// its first request, whichever comes first. In BatchModeContinuous (the
// default) those stay as upper bounds, but a batch additionally dispatches
// the moment its key's retrieval in flight completes, so dispatches run
// back-to-back under load. The first request after idle forms no batch: it
// retrieves at once on its caller's goroutine, under its own context, as a
// batch of one would. A batch dispatches on a goroutine of its own.
// Window <= 0 or MaxBatch <= 1 disables coalescing entirely: every request
// retrieves at once on its caller's goroutine and context.
//
// Batches are epoch-pinned: requests only coalesce when they were admitted
// at the same update epoch, and the combined retrieval runs on the View of
// that epoch — never on a newer probe set — so a caller that pinned its
// request to an epoch receives results consistent with it.
//
// Contexts merge: the combined retrieval runs under a batch context that
// is canceled only when every caller's context has been canceled — one
// impatient client cannot abort work its batch-mates still want — and a
// caller whose own context ends returns immediately with ctx.Err() while
// the batch (if anyone is left) runs on. When the last caller leaves, the
// batch context cancels and the sharded scan aborts mid-bucket.
type Batcher struct {
	sharded *Sharded
	window  time.Duration
	max     int
	mode    BatchMode

	// onDispatch, if set, observes every dispatched batch: the number of
	// query rows and the number of coalesced requests it served.
	onDispatch func(rows, requests int)

	// Observability hooks, wired by the server and nil for library use.
	// batchWaitHist observes each waiter's coalescing delay, batchRowsHist
	// each dispatched call's row count. dispatchIdle accumulates the
	// nanoseconds a key's index sat idle while a forming batch waited to
	// dispatch — the window penalty continuous mode exists to remove.
	// tracer supplies the batch-scoped scratch trace that shared
	// retrievals record spans into; the spans are then adopted into every
	// still-waiting request's own trace, so a coalesced request's trace
	// shows the shard fan-out it shared.
	batchWaitHist *obs.Histogram
	batchRowsHist *obs.Histogram
	dispatchIdle  *obs.Counter
	tracer        *obs.Tracer

	// pending counts query rows sitting in forming (not yet dispatched)
	// batches — the batcher's queue depth, and the admission-control
	// signal the server sheds on.
	pending atomic.Int64

	mu      sync.Mutex
	forming map[batchKey]*formingBatch
	// keys tracks per-key dispatch state: how many retrievals are in
	// flight (continuous mode fires the next forming batch when one
	// completes) and when the key last went idle (for the idle-gap
	// metric). Entries are reaped once a key has neither in-flight
	// dispatches nor a forming batch, so the map stays bounded across
	// epochs and parameter churn.
	keys map[batchKey]*keyState
}

// keyState is the per-key dispatch bookkeeping. Guarded by Batcher.mu.
type keyState struct {
	inflight int       // dispatched-but-unfinished retrievals for the key
	lastDone time.Time // when inflight last dropped to zero
}

// PendingRows returns the number of query rows currently waiting in
// forming batches.
func (b *Batcher) PendingRows() int64 { return b.pending.Load() }

// batchKey identifies requests that can share one retrieval call: the
// problem kind plus its parameter, and the update epoch the request was
// admitted at. Rows of a query matrix share one k or θ; requests from
// different epochs never share a call.
type batchKey struct {
	topk  bool
	k     int
	theta float64
	epoch uint64
}

// check is the serving stack's one k/θ refusal, made before a request can
// join a batch: a bad parameter must fail its own caller, never a coalesced
// batch. θ's test is written !(θ > 0), not θ <= 0, so that NaN is refused —
// every comparison with NaN is false. A NaN θ would poison bucket-pruning
// bounds, and θ is part of the coalescing key and NaN != NaN: an admitted
// NaN could never find its forming batch again, so every call would orphan
// a timer-held batch of its own.
func (key batchKey) check() error {
	switch {
	case key.topk && key.k < 1:
		return fmt.Errorf("k must be positive, got %d", key.k)
	case !key.topk && (!(key.theta > 0) || math.IsInf(key.theta, 1)):
		return fmt.Errorf("theta must be a positive finite number, got %v", key.theta)
	}
	return nil
}

// formingBatch is a batch still accepting rows.
type formingBatch struct {
	key     batchKey
	view    *View     // the epoch snapshot the batch will retrieve on
	data    []float64 // concatenated query vectors
	rows    int
	waiters []*waiter
	timer   *time.Timer // the window's deadline; nil until the batch has to wait
	created time.Time
	fired   bool // dispatched (by size or timer); no longer accepting rows

	// Merged cancellation: ctx is the batch's retrieval context, live the
	// number of waiters still interested. abandon() decrements live and
	// cancels ctx at zero. Guarded by Batcher.mu.
	ctx    context.Context
	cancel context.CancelFunc
	live   int
}

// stopTimer disarms the window timer of a batch that armed one.
func (fb *formingBatch) stopTimer() {
	if fb.timer != nil {
		fb.timer.Stop()
	}
}

// waiter is one caller's slice of a forming batch: rows [off, off+n).
// The trace fields tie the caller's request trace to the shared batch:
// waitSpan covers the coalescing delay, retSpan the shared retrieval
// (under which the batch's shard/merge spans are adopted). gone marks a
// waiter whose caller abandoned the batch (context ended); it is guarded
// by Batcher.mu, and dispatch only touches a waiter's trace — or sends
// into its done channel — under that lock while !gone. Once abandon has
// run, the trace is back in the caller's hands and the batcher never
// touches the waiter again.
type waiter struct {
	off, n int
	done   chan batchResult

	tr       *obs.Trace
	parent   obs.SpanRef
	waitSpan obs.SpanRef
	retSpan  obs.SpanRef
	joined   time.Time
	gone     bool
}

// batchResult carries one caller's per-query result rows and the batch's
// core stats (shared by every waiter of the batch — the retrieval ran
// once for all of them). Entry.Query is rewritten to the caller's own row
// numbering; probe ids are global.
type batchResult struct {
	rows  [][]lemp.Entry
	stats lemp.Stats
	err   error
}

// NewBatcher wraps a sharded index with request coalescing in the given
// dispatch mode.
func NewBatcher(sh *Sharded, window time.Duration, maxBatch int, mode BatchMode) *Batcher {
	return &Batcher{
		sharded: sh,
		window:  window,
		max:     maxBatch,
		mode:    mode,
		forming: make(map[batchKey]*formingBatch),
		keys:    make(map[batchKey]*keyState),
	}
}

// Mode returns the batcher's dispatch mode.
func (b *Batcher) Mode() BatchMode { return b.mode }

// TopKAt submits one request's query rows (concatenated vectors of
// dimension R) for Row-Top-k retrieval on the caller's epoch snapshot and
// blocks until its batch completes or ctx ends. The returned rows parallel
// the submitted queries; the stats are the whole batch's core stats —
// shared by every coalesced request of the batch, since the retrieval ran
// once for all of them.
func (b *Batcher) TopKAt(ctx context.Context, v *View, data []float64, rows, k int) ([][]lemp.Entry, lemp.Stats, error) {
	return b.submit(ctx, batchKey{topk: true, k: k, epoch: v.Epoch()}, v, data, rows)
}

// AboveThetaAt is TopKAt for Above-θ retrieval.
func (b *Batcher) AboveThetaAt(ctx context.Context, v *View, data []float64, rows int, theta float64) ([][]lemp.Entry, lemp.Stats, error) {
	return b.submit(ctx, batchKey{theta: theta, epoch: v.Epoch()}, v, data, rows)
}

// submit is the batcher's one request path: refuse a bad parameter or shape,
// then retrieve alone (no coalescing configured) or join key's forming batch
// and wait for this caller's rows.
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
	// Validate the submission's shape before it joins a batch: a malformed
	// library-level submission must fail its own caller alone, not poison
	// the combined MatrixFromData call and fail every innocent batch-mate.
	if r := b.sharded.R(); rows < 0 || len(data) != rows*r {
		return nil, lemp.Stats{}, fmt.Errorf("server: batch submission has %d values for %d rows of dimension %d", len(data), rows, r)
	}
	if b.window <= 0 || b.max <= 1 {
		// No coalescing: the request's own context drives the retrieval,
		// and its trace (if any) receives the shard/merge spans directly.
		res := b.retrieve(ctx, key, v, data, rows, 1)
		return res.rows, res.stats, res.err
	}

	fb, w := b.join(ctx, key, v, data, rows)
	if fb == nil {
		// join claimed the idle key for this request alone.
		res := b.retrieveAlone(ctx, key, v, data, rows)
		return res.rows, res.stats, res.err
	}
	select {
	case res := <-w.done:
		return res.rows, res.stats, res.err
	case <-ctx.Done():
		// This caller is gone (client disconnect, deadline). Its rows stay
		// in the batch — removing them would renumber other waiters — but
		// when every caller has left, the batch context cancels and the
		// sharded retrieval aborts mid-scan instead of running to
		// completion for nobody.
		b.abandon(fb, w)
		return nil, lemp.Stats{}, ctx.Err()
	}
}

// join adds one request's rows to key's forming batch, starting a new batch
// where there is none to join, and then fires the batch, or leaves it to
// wait with the window timer armed. It returns the batch and the caller's
// place in it.
//
// In continuous mode a key with no forming batch and nothing in flight
// forms no batch at all: join counts the caller's retrieval in flight and
// returns a nil batch, and the caller runs retrieveAlone. A batch fired on
// arrival would accept no other rows, so it would only ever have served
// this one caller, through a goroutine hand-off and a merged context.
func (b *Batcher) join(ctx context.Context, key batchKey, v *View, data []float64, rows int) (*formingBatch, *waiter) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fb := b.forming[key]
	if fb == nil && b.mode == BatchModeContinuous && b.inflight(key) == 0 {
		b.claim(key, time.Now())
		return nil, nil
	}
	if fb == nil || fb.fired || fb.rows+rows > b.max {
		// Start a new batch. An oversized or displaced predecessor keeps
		// running; it simply stops being the forming batch for this key.
		if fb != nil && !fb.fired {
			b.fire(fb)
		}
		fb = &formingBatch{key: key, view: v, created: time.Now()}
		fb.ctx, fb.cancel = context.WithCancel(context.Background())
		b.forming[key] = fb
	}
	w := &waiter{off: fb.rows, n: rows, done: make(chan batchResult, 1), retSpan: obs.NoSpan, joined: time.Now()}
	w.tr, w.parent = obs.SpanFrom(ctx)
	w.waitSpan = w.tr.Start("batch.wait", w.parent)
	fb.data = append(fb.data, data...)
	fb.rows += rows
	fb.waiters = append(fb.waiters, w)
	fb.live++
	b.pending.Add(int64(rows))
	switch {
	case fb.rows >= b.max:
		b.fire(fb)
	case fb.timer == nil:
		// The batch waits, so the window bounds the wait from here. In
		// continuous mode the key has a retrieval in flight, whose
		// completion fires the batch sooner. A batch that fires in the call
		// that created it never arms a timer at all.
		fb.timer = time.AfterFunc(b.window, func() {
			b.mu.Lock()
			defer b.mu.Unlock()
			b.fire(fb)
		})
	}
	return fb, w
}

// retrieveAlone runs the retrieval of a request join admitted on an idle
// key: on the caller's goroutine, under the caller's own context (so a
// cancellation aborts the shard scans directly) and into the caller's own
// trace, with the same zero-length batch.wait and batch.retrieve spans a
// dispatched batch records. Completion then fires whatever batch formed on
// the key meanwhile.
func (b *Batcher) retrieveAlone(ctx context.Context, key batchKey, v *View, data []float64, rows int) batchResult {
	joined := time.Now()
	tr, parent := obs.SpanFrom(ctx)
	tr.End(tr.Start("batch.wait", parent))
	b.batchWaitHist.ObserveDuration(time.Since(joined))
	ret := tr.Start("batch.retrieve", parent)
	rctx := ctx
	if tr != nil {
		rctx = obs.ContextWithSpan(ctx, tr, ret)
	}
	res := b.retrieve(rctx, key, v, data, rows, 1)
	tr.End(ret)
	b.completeDispatch(key)
	return res
}

// inflight returns the number of dispatched-but-unfinished retrievals for
// key. Callers must hold b.mu.
func (b *Batcher) inflight(key batchKey) int {
	if ks := b.keys[key]; ks != nil {
		return ks.inflight
	}
	return 0
}

// abandon records one waiter's departure. When the last interested waiter
// leaves, the batch context cancels; if the batch had not fired yet it is
// retired entirely — stopped timer, removed from the forming map — so a
// later caller on the same key starts a fresh batch instead of joining one
// whose merged context is already dead (and inheriting its cancellation).
//
// The departing waiter's trace leaves with its request: gone is set under
// b.mu, after which dispatch never touches w.tr (or sends into w.done)
// again, and any spans the batcher opened are closed here so the request
// can finish its trace immediately.
func (b *Batcher) abandon(fb *formingBatch, w *waiter) {
	b.mu.Lock()
	w.gone = true
	w.tr.End(w.waitSpan)
	w.tr.End(w.retSpan)
	fb.live--
	if fb.live == 0 {
		fb.cancel()
		if !fb.fired {
			// Nobody is waiting: there is nothing to dispatch. Mark the
			// batch fired so submit can never add rows to it again.
			fb.fired = true
			fb.stopTimer()
			if b.forming[fb.key] == fb {
				delete(b.forming, fb.key)
			}
			b.pending.Add(-int64(fb.rows))
			b.reapKey(fb.key)
		}
	}
	b.mu.Unlock()
}

// fire dispatches fb on its own goroutine. Callers must hold b.mu.
func (b *Batcher) fire(fb *formingBatch) {
	if fb.fired {
		return
	}
	fb.fired = true
	fb.stopTimer()
	if b.forming[fb.key] == fb {
		delete(b.forming, fb.key)
	}
	b.pending.Add(-int64(fb.rows))
	b.claim(fb.key, fb.created)
	go b.dispatch(fb)
}

// claim counts one more retrieval in flight for key, charging the key's
// idle gap when it was idle: from the later of created (when the rows to be
// retrieved arrived) and the previous retrieval's completion, until now.
// Continuous mode keeps this near zero by construction; window mode pays up
// to the full window here. Callers must hold b.mu.
func (b *Batcher) claim(key batchKey, created time.Time) {
	ks := b.keys[key]
	if ks == nil {
		ks = &keyState{}
		b.keys[key] = ks
	}
	if ks.inflight == 0 {
		idleStart := created
		if ks.lastDone.After(idleStart) {
			idleStart = ks.lastDone
		}
		b.dispatchIdle.Add(float64(time.Since(idleStart).Nanoseconds()))
	}
	ks.inflight++
}

// completeDispatch records one retrieval's completion and, in continuous
// mode, fires the key's forming batch (if any) so dispatches stay
// back-to-back with zero idle gap.
func (b *Batcher) completeDispatch(key batchKey) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ks := b.keys[key]
	if ks == nil {
		return
	}
	ks.inflight--
	if ks.inflight == 0 {
		ks.lastDone = time.Now()
	}
	if b.mode == BatchModeContinuous {
		if next := b.forming[key]; next != nil && !next.fired {
			b.fire(next)
			return
		}
	}
	b.reapKey(key)
}

// reapKey drops a key's dispatch state once it is fully quiet — no
// retrieval in flight and no forming batch — so the map does not grow
// without bound across epochs and parameter values. Callers must hold
// b.mu.
func (b *Batcher) reapKey(key batchKey) {
	if ks := b.keys[key]; ks != nil && ks.inflight == 0 && b.forming[key] == nil {
		delete(b.keys, key)
	}
}

// dispatch runs the combined retrieval and scatters rows to the waiters.
//
// Tracing: the shared retrieval cannot record into any single waiter's
// trace — that waiter may abandon (and finish its trace) mid-retrieval —
// so it records into a batch-scoped scratch trace instead, and after the
// retrieval its spans are adopted into every waiter that is still here.
// All per-waiter access (trace and result scatter alike) happens under
// b.mu opposite abandon's gone flag, so a departed request's trace is
// never touched and its result rows are never pinned in a channel nobody
// will read.
func (b *Batcher) dispatch(fb *formingBatch) {
	defer fb.cancel() // release the merged context once everyone is served
	traced := false
	b.mu.Lock()
	for _, w := range fb.waiters {
		if w.gone {
			continue
		}
		w.tr.End(w.waitSpan)
		b.batchWaitHist.ObserveDuration(time.Since(w.joined))
		w.retSpan = w.tr.Start("batch.retrieve", w.parent)
		if w.tr != nil {
			traced = true
		}
	}
	b.mu.Unlock()

	rctx := fb.ctx
	var btr *obs.Trace
	if traced && b.tracer != nil {
		btr = b.tracer.StartTrace()
		rctx = obs.ContextWithSpan(fb.ctx, btr, obs.NoSpan)
	}
	res := b.retrieve(rctx, fb.key, fb.view, fb.data, fb.rows, len(fb.waiters))

	// The retrieval is done: let the next forming batch for this key
	// dispatch before we spend time scattering results, so back-to-back
	// batches overlap the scatter instead of serializing behind it.
	b.completeDispatch(fb.key)

	b.mu.Lock()
	for _, w := range fb.waiters {
		if w.gone {
			// The caller already left with ctx.Err(): sending its result
			// into the buffered done channel would pin the sliced rows
			// until the channel itself is collected, for a reader that
			// will never come.
			continue
		}
		if btr != nil {
			w.tr.AdoptSpans(btr, 0, obs.SpanRef(btr.Len()), w.retSpan)
		}
		w.tr.End(w.retSpan)
		if res.err != nil {
			w.done <- batchResult{stats: res.stats, err: res.err}
			continue
		}
		rows := res.rows[w.off : w.off+w.n]
		for i, row := range rows {
			for j := range row {
				row[j].Query = i
			}
		}
		w.done <- batchResult{rows: rows, stats: res.stats}
	}
	b.mu.Unlock()
	if btr != nil {
		b.tracer.Release(btr)
	}
}

// retrieve performs one sharded retrieval over a batch of rows, on the
// epoch snapshot the batch was admitted at, under the batch's (merged)
// context. Every shard scans the whole coalesced matrix, whatever the
// placement.
func (b *Batcher) retrieve(ctx context.Context, key batchKey, v *View, data []float64, rows, requests int) batchResult {
	q, err := lemp.MatrixFromData(b.sharded.R(), rows, data)
	if err != nil {
		return batchResult{err: err}
	}
	if b.onDispatch != nil {
		b.onDispatch(rows, requests)
	}
	b.batchRowsHist.Observe(float64(rows))
	out, st, err := v.retrieve(ctx, q, key)
	return batchResult{rows: out, stats: st, err: err}
}
