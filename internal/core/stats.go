package core

import "time"

// Stats reports the work done by one retrieval call, in the units the
// paper's tables use: wall-clock phases and average candidate set sizes.
// Index state — bucket counts, lazily built lists, the one-time
// preprocessing time — is not a call's work and is read from the Index
// (NumBuckets, Buckets, PrepTime). Every field sums under Add, so a
// cumulative total is the plain sum of its calls. The JSON
// names are those of a server's /stats "core" block.
type Stats struct {
	Queries int `json:"queries"` // number of query vectors processed

	// Candidates counts probe vectors that survived bucket-level pruning
	// and were verified with an exact inner product — the paper's |C|
	// column. Results counts verified entries that passed the threshold
	// (or ended in a top-k set).
	Candidates int64 `json:"candidates"`
	Results    int64 `json:"results"`

	// BlockVerified and ScalarVerified split the live verified candidates
	// by kernel: block-verified candidates went through the panel kernels
	// (DotBatch over a contiguous run, or 8/4-wide strided blocks), scalar-
	// verified ones were the ragged tail handled by plain Dot. Their sum
	// can undershoot Candidates: the candidates the int8 screen discards
	// (QuantScreened) and the tombstoned ones, dropped after the screen,
	// never reach verification and are counted in neither.
	BlockVerified  int64 `json:"block_verified"`
	ScalarVerified int64 `json:"scalar_verified"`

	// ProcessedPairs and PrunedPairs count (query, bucket) combinations
	// that were processed vs. skipped because the local threshold
	// exceeded 1 (line 13 of Algorithm 1) at that bucket or an earlier
	// one, or because the query has length 0: they sum to queries ×
	// buckets for both problems.
	ProcessedPairs int64 `json:"processed_pairs"`
	PrunedPairs    int64 `json:"pruned_pairs"`

	// QuantScreened and QuantSurvived split the candidates of the screened
	// (query, bucket) pairs, tombstoned ones included, so they sum to those
	// pairs' candidates: screened ones were discarded by the conservative
	// int8 bound without touching their f64 row, survived ones fell through
	// to the tombstone test and the exact kernels. Every finite-cut pair is
	// screened under Options.Quantize (screenRule); otherwise the pairs of
	// at least eight candidates under a finite threshold are, and only
	// where the int8 kernels are assembly — so on an index built without
	// the option these two, and with them the BlockVerified/ScalarVerified
	// split, differ between an AVX2 host and a portable one (both 0 there),
	// while rows and every other counter do not. A server renders them in
	// its own "quant" block.
	QuantScreened int64 `json:"-"`
	QuantSurvived int64 `json:"-"`

	// Tunings counts sample-tuning passes (§4.4) actually executed by the
	// call; TuneCacheHits counts tuning phases answered by restoring
	// parameters from a TuningCache instead. A warm-cache call reports
	// Tunings == 0 — the assertion that repeat-call tuning cost is gone.
	Tunings       int `json:"tunings"`
	TuneCacheHits int `json:"tune_cache_hits"`

	// Phase times of the call, in integer nanoseconds in JSON. Summed over
	// calls they are worker time, not wall clock: four calls scanning
	// concurrently for 1ms add 4ms of RetrievalTime.
	TuneTime      time.Duration `json:"tune_ns"`      // sample-based algorithm selection (§4.4)
	RetrievalTime time.Duration `json:"retrieval_ns"` // the retrieval phase itself
}

// Add accumulates another call's stats into s, field by field. Long-lived
// servers use it to expose cumulative stats across many retrieval calls.
func (s *Stats) Add(o Stats) {
	s.Queries += o.Queries
	s.Candidates += o.Candidates
	s.Results += o.Results
	s.BlockVerified += o.BlockVerified
	s.ScalarVerified += o.ScalarVerified
	s.ProcessedPairs += o.ProcessedPairs
	s.PrunedPairs += o.PrunedPairs
	s.QuantScreened += o.QuantScreened
	s.QuantSurvived += o.QuantSurvived
	s.Tunings += o.Tunings
	s.TuneCacheHits += o.TuneCacheHits
	s.TuneTime += o.TuneTime
	s.RetrievalTime += o.RetrievalTime
}

// CandidatesPerQuery returns the average candidate set size per query, the
// parenthesized |C|/q column of Tables 3–6.
func (s Stats) CandidatesPerQuery() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Candidates) / float64(s.Queries)
}
