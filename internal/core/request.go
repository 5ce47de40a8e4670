package core

import (
	"context"
	"fmt"

	"lemp/internal/obs"
)

// Per-call execution policy. Index construction fixes everything structural
// (bucketization, cache sizing, the id space); RunOptions carries the few
// knobs that are legitimately per-query-batch decisions — which bucket
// algorithm to run, how many goroutines to fan out over, and whether fitted
// tuning parameters may be reused across calls, and the candidate generator
// an experiment substitutes for the bucket methods — so a serving system can
// hold one index and vary execution policy request by request.

// RunOptions are per-call overrides of an Index's build-time Options plus
// the cross-call tuning cache. The zero value runs with the index defaults.
type RunOptions struct {
	// Algorithm overrides the bucket algorithm for this call only (nil
	// keeps the index's Options.Algorithm). Structural options that shaped
	// the per-bucket indexes are unaffected; lazily built indexes for the
	// new algorithm appear on first use, like after a fresh build.
	Algorithm *Algorithm
	// Parallelism overrides Options.Parallelism when > 0.
	Parallelism int
	// Cache, when non-nil, reuses fitted per-bucket tuning parameters
	// (§4.4) across calls with the same problem, algorithm and index
	// version, eliminating the per-call sample-tuning cost that dominates
	// small serving batches. See TuningCache.
	Cache *TuningCache
	// Gen, when non-nil, generates every pair's candidates in place of the
	// bucket algorithm (gen.go); the call then runs no tuning pass and
	// ignores Algorithm, Phi and any fit.
	Gen CandidateGen
}

// effOptions resolves the per-call effective options: the index's defaults
// with the RunOptions overrides applied and re-validated.
func (ix *Index) effOptions(ro RunOptions) (Options, error) {
	o := ix.opts
	if ro.Algorithm != nil {
		o.Algorithm = *ro.Algorithm
	}
	if ro.Parallelism > 0 {
		o.Parallelism = ro.Parallelism
	}
	if ro.Parallelism < 0 {
		return o, fmt.Errorf("core: parallelism %d must be positive", ro.Parallelism)
	}
	if err := o.validate(); err != nil {
		return o, err
	}
	return o, nil
}

// call is the per-invocation state threaded through the executor and its
// workers: the caller's context (sampled at bucket boundaries so a
// cancellation aborts the scan promptly), the effective options, the fit the
// scan runs under (set by the executor once the job has one), and the request
// trace (if any) for phase spans.
type call struct {
	opts  Options
	cache *TuningCache
	fit   []tunedParam    // aligned with ix.scan; nil = defaults
	gen   CandidateGen    // RunOptions.Gen; nil runs the bucket algorithms
	done  <-chan struct{} // ctx.Done(); nil for context.Background()
	err   func() error    // ctx.Err
	tr    *obs.Trace      // request trace; nil when untraced
	span  obs.SpanRef     // parent span for this call's phase spans
}

// newCall binds a context and effective options into a call. A trace
// carried by the context (obs.ContextWithSpan — the server attaches one
// per request) makes the call record tune/scan phase spans; the
// hooks sit at the same boundaries as the cancellation checkpoints and
// are free for untraced calls.
func newCall(ctx context.Context, opts Options, cache *TuningCache) *call {
	if ctx == nil {
		ctx = context.Background()
	}
	tr, parent := obs.SpanFrom(ctx)
	return &call{opts: opts, cache: cache, done: ctx.Done(), err: ctx.Err, tr: tr, span: parent}
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
