package core

import (
	"context"
	"fmt"

	"lemp/internal/obs"
)

// Per-call execution policy. Index construction fixes everything structural
// and the method — bucketization, cache sizing, the id space, the bucket
// algorithm and its fit — and RunOptions carries the few knobs that are
// legitimately per-query-batch decisions: how many goroutines to fan out
// over, whether fitted tuning parameters may be reused across calls, and the
// candidate generator an experiment substitutes for the bucket methods.

// RunOptions are a call's execution policy on top of the index's build-time
// Options. The zero value runs with the index defaults.
type RunOptions struct {
	// Parallelism overrides Options.Parallelism when > 0.
	Parallelism int
	// Cache, when non-nil, reuses fitted per-bucket tuning parameters
	// (§4.4) across calls with the same problem and index version,
	// eliminating the per-call sample-tuning cost that dominates small
	// serving batches. See TuningCache.
	Cache *TuningCache
	// Gen, when non-nil, generates every pair's candidates in place of the
	// bucket algorithm (gen.go); the call then runs no tuning pass and
	// ignores Options.Algorithm, Options.Phi and any fit.
	Gen CandidateGen
}

// parallelism resolves a call's parallelism: the RunOptions override when
// positive, the index's otherwise.
func (ix *Index) parallelism(ro RunOptions) (int, error) {
	if ro.Parallelism < 0 {
		return 0, fmt.Errorf("core: parallelism %d must be positive", ro.Parallelism)
	}
	if ro.Parallelism > 0 {
		return ro.Parallelism, nil
	}
	return ix.opts.Parallelism, nil
}

// call is the per-invocation state threaded through the executor and its
// workers: the caller's context (sampled at bucket boundaries so a
// cancellation aborts the scan promptly), its parallelism, the fit the
// scan runs under (set by the executor once the job has one), and the request
// trace (if any) for phase spans.
type call struct {
	par   int // goroutines the tuning pass fans out over
	cache *TuningCache
	fit   []tunedParam    // aligned with ix.scan; nil = defaults
	gen   CandidateGen    // RunOptions.Gen; nil runs the bucket algorithms
	done  <-chan struct{} // ctx.Done(); nil for context.Background()
	err   func() error    // ctx.Err
	tr    *obs.Trace      // request trace; nil when untraced
	span  obs.SpanRef     // parent span for this call's phase spans
}

// newCall binds a context and a parallelism into a call. A trace
// carried by the context (obs.ContextWithSpan — the server attaches one
// per request) makes the call record tune/scan phase spans; the
// hooks sit at the same boundaries as the cancellation checkpoints and
// are free for untraced calls.
func newCall(ctx context.Context, par int, cache *TuningCache) *call {
	if ctx == nil {
		ctx = context.Background()
	}
	tr, parent := obs.SpanFrom(ctx)
	return &call{par: par, cache: cache, done: ctx.Done(), err: ctx.Err, tr: tr, span: parent}
}

// startSpan opens a phase span under the call's parent span; a no-op
// returning obs.NoSpan for untraced calls.
func (c *call) startSpan(name string) obs.SpanRef {
	return c.tr.Start(name, c.span)
}

// endSpan closes a phase span.
func (c *call) endSpan(ref obs.SpanRef) { c.tr.End(ref) }

// canceled reports whether the call's context is done. It is the
// cancellation checkpoint the kernels place at bucket boundaries: one
// non-blocking channel poll, free for background contexts.
func (c *call) canceled() bool {
	if c.done == nil {
		return false
	}
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// ctxErr returns the context's error (context.Canceled or
// context.DeadlineExceeded) once canceled() has reported true.
func (c *call) ctxErr() error {
	if err := c.err(); err != nil {
		return err
	}
	return context.Canceled
}
