package lemp

import (
	"context"
	"fmt"

	"lemp/internal/core"
	"lemp/internal/retrieval"
)

// Retrieve is the single context-aware entry point for every retrieval
// mode. The spec is assembled from functional options: exactly one of
// TopK(k) or AboveTheta(theta) selects the problem, and the remaining
// options adjust per-call execution policy — bucket algorithm, parallelism,
// tuning-parameter reuse, streaming. Index construction fixes structure;
// Retrieve fixes policy, per call.
//
//	res, err := index.Retrieve(ctx, q, lemp.TopK(10), lemp.WithParallelism(4))
//	res, err := index.Retrieve(ctx, q, lemp.AboveTheta(0.9), lemp.Stream(emit))
//
// The context is honored at bucket boundaries throughout tuning and
// retrieval: a canceled or expired context aborts the scan within one
// bucket's work per worker, returns ctx.Err(), and leaves the index fully
// reusable. Option conflicts and invalid parameters are reported before any
// retrieval work runs.
func (ix *Index) Retrieve(ctx context.Context, q *Matrix, opts ...Option) (*Result, error) {
	spec, err := NewSpec(opts...)
	if err != nil {
		return nil, err
	}
	return ix.RetrieveSpec(ctx, q, spec)
}

// RetrieveSpec is Retrieve with a pre-validated Spec, letting serving loops
// build the spec once and reuse it across calls.
func (ix *Index) RetrieveSpec(ctx context.Context, q *Matrix, spec *Spec) (*Result, error) {
	if spec == nil || spec.prob == (core.Problem{}) {
		return nil, fmt.Errorf("lemp: spec must be built with NewSpec")
	}
	ro := core.RunOptions{
		Algorithm:   spec.algorithm,
		Parallelism: spec.parallelism,
		Cache:       spec.cache,
	}
	res := &Result{Epoch: ix.Epoch()}
	sink := retrieval.Sink(spec.stream)
	if spec.prob.K == 0 && sink == nil {
		sink = retrieval.Collect(&res.Entries)
	}
	var err error
	res.TopK, res.Stats, err = ix.inner.Retrieve(ctx, q, spec.prob, sink, ro)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Result is one Retrieve answer.
type Result struct {
	// TopK holds the Row-Top-k rows (row i lists query i's top entries by
	// decreasing value); nil in Above-θ mode.
	TopK TopKRows
	// Entries holds the collected Above-θ entries in unspecified order;
	// nil in Row-Top-k mode and when Stream diverted entries to a callback.
	Entries []Entry
	// Stats reports the call's work: its tuning and retrieval times and
	// pruning counters (the index's preprocessing time is Index.PrepTime). A
	// call whose tuning phase was answered from a TuningCache reports
	// Tunings == 0 and TuneCacheHits > 0.
	Stats Stats
	// Epoch is the index mutation epoch the call was answered at; callers
	// that key caches or consistency checks on the probe-set version use
	// it to detect concurrent updates.
	Epoch uint64
}

// Spec is a validated retrieval specification. Build one with NewSpec (or
// implicitly via Retrieve); the zero value is invalid.
type Spec struct {
	prob        core.Problem // set, and valid, in every Spec NewSpec returns
	algorithm   *Algorithm
	parallelism int
	cache       *TuningCache
	stream      func(Entry)
}

// Option configures one aspect of a retrieval Spec.
type Option func(*Spec) error

// NewSpec validates a set of options into a Spec: exactly one retrieval
// mode, no conflicting options, every parameter in range. All validation
// happens here — before any retrieval work — so a bad spec can never start
// a scan.
func NewSpec(opts ...Option) (*Spec, error) {
	spec := &Spec{}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("lemp: nil Option")
		}
		if err := opt(spec); err != nil {
			return nil, err
		}
	}
	if spec.prob == (core.Problem{}) {
		return nil, fmt.Errorf("lemp: no retrieval mode: pass TopK(k) or AboveTheta(theta)")
	}
	if spec.stream != nil && spec.prob.K > 0 {
		return nil, fmt.Errorf("lemp: Stream applies only to AboveTheta retrieval")
	}
	return spec, nil
}

// TopK selects Row-Top-k retrieval: for every query vector, its k probe
// vectors with the largest inner products, by decreasing value (fewer when
// the index holds fewer live probes). Ties are broken arbitrarily: inside
// one index, scan order decides which of several probes with equal values a
// row keeps, while MergeTopK, and with it a sharded server, keeps the
// smallest ids among the shards' rows. So the two can return different
// probes for tied values; the values themselves agree.
func TopK(k int) Option {
	return func(s *Spec) error {
		return s.setProblem(core.Problem{K: k}, "k must be positive, got %d", k)
	}
}

// AboveTheta selects Above-θ retrieval: every entry of QᵀP with value
// ≥ theta, in unspecified order. theta must be a positive finite number,
// as in the paper's problem statement.
func AboveTheta(theta float64) Option {
	return func(s *Spec) error {
		return s.setProblem(core.Problem{Theta: theta}, "theta must be a positive finite number, got %v", theta)
	}
}

// setProblem installs the retrieval mode, refusing a second mode option
// (TopK + AboveTheta, or a mode given twice) and an out-of-range k or θ.
// Whether the value is in range is core's one validator's decision; the
// words are the option's, which knows what the caller passed.
func (s *Spec) setProblem(p core.Problem, rangeMsg string, arg any) error {
	if s.prob != (core.Problem{}) {
		return fmt.Errorf("lemp: retrieval mode already set: pass exactly one of TopK or AboveTheta")
	}
	if p.Validate() != nil {
		return fmt.Errorf("lemp: "+rangeMsg, arg)
	}
	s.prob = p
	return nil
}

// WithAlgorithm overrides the index's bucket algorithm for this call only.
// Structural options fixed at build time (bucket sizing) are unaffected;
// lazily built per-bucket indexes for the new algorithm appear on first
// use.
func WithAlgorithm(a Algorithm) Option {
	return func(s *Spec) error {
		if !a.Valid() {
			return fmt.Errorf("lemp: invalid algorithm %d", int(a))
		}
		if s.algorithm != nil {
			return fmt.Errorf("lemp: WithAlgorithm given twice")
		}
		s.algorithm = &a
		return nil
	}
}

// WithParallelism fans this call's retrieval phase out over n goroutines,
// overriding Options.Parallelism. n must be at least 1.
func WithParallelism(n int) Option {
	return func(s *Spec) error {
		if n < 1 {
			return fmt.Errorf("lemp: parallelism must be at least 1, got %d", n)
		}
		if s.parallelism != 0 {
			return fmt.Errorf("lemp: WithParallelism given twice")
		}
		s.parallelism = n
		return nil
	}
}

// WithTuningCache reuses fitted per-bucket tuning parameters (§4.4) across
// calls through tc: the first call with a given (mode, k/θ, algorithm,
// index version) pays one sample-tuning pass and stores the fit; subsequent
// calls restore it and perform zero sample-tuning work (Stats.Tunings == 0,
// Stats.TuneCacheHits == 1). Probe mutations and re-bucketizations rotate
// the key, so a stale fit is never applied. Results are byte-identical with
// and without the cache — tuning only selects per-bucket methods. Under
// AlgorithmL there is nothing to fit: the cache is accepted and never
// consulted.
func WithTuningCache(tc *TuningCache) Option {
	return func(s *Spec) error {
		if tc == nil {
			return fmt.Errorf("lemp: WithTuningCache needs a non-nil cache (build one with NewTuningCache)")
		}
		if s.cache != nil {
			return fmt.Errorf("lemp: WithTuningCache given twice")
		}
		s.cache = tc
		return nil
	}
}

// Stream diverts an AboveTheta retrieval's entries to emit as they are
// found, instead of materializing Result.Entries — the paper retrieves up
// to 10⁷ entries per run, so large result sets should stream. The Entry
// passed to emit must not be retained; emit may be called from multiple
// goroutines' entries but never concurrently. Conflicts with TopK.
func Stream(emit func(Entry)) Option {
	return func(s *Spec) error {
		if emit == nil {
			return fmt.Errorf("lemp: Stream needs a non-nil emit func")
		}
		if s.stream != nil {
			return fmt.Errorf("lemp: Stream given twice")
		}
		s.stream = emit
		return nil
	}
}

// TuningCache caches fitted per-bucket tuning parameters across retrieval
// calls; see WithTuningCache. It is safe for concurrent use and may be
// shared across indexes (e.g. server shards) — entries are keyed by index
// instance and version, so they never cross indexes or survive mutations.
type TuningCache = core.TuningCache

// NewTuningCache returns an empty tuning cache.
func NewTuningCache() *TuningCache { return core.NewTuningCache() }
