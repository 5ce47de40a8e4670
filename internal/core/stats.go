package core

import "time"

// Stats reports the work done by one retrieval run, in the units the
// paper's tables use: wall-clock phases and average candidate set sizes.
type Stats struct {
	Queries int // number of query vectors processed
	Buckets int // number of probe buckets in the index

	// Candidates counts probe vectors that survived bucket-level pruning
	// and were verified with an exact inner product — the paper's |C|
	// column. Results counts verified entries that passed the threshold
	// (or ended in a top-k set).
	Candidates int64
	Results    int64

	// BlockVerified and ScalarVerified split the live verified candidates
	// by kernel: block-verified candidates went through the panel kernels
	// (DotBatch over a contiguous run, or 8/4-wide strided blocks), scalar-
	// verified ones were the ragged tail handled by plain Dot. Their sum
	// can undershoot Candidates: tombstoned candidates and those the int8
	// screen discards (QuantScreened) never reach verification and are
	// counted in neither.
	BlockVerified  int64
	ScalarVerified int64

	// ProcessedPairs and PrunedPairs count (query, bucket) combinations
	// that were processed vs. skipped because the local threshold
	// exceeded 1 (line 13 of Algorithm 1).
	ProcessedPairs int64
	PrunedPairs    int64

	// QuantScreened and QuantSurvived split the candidates of the screened
	// (query, bucket) pairs: screened ones were discarded by the
	// conservative int8 bound without touching their f64 row, survived ones
	// fell through to the exact kernels. Every pair is screened under
	// Options.Quantize;
	// otherwise the pairs of at least eight candidates under a finite
	// threshold are, and only where the int8 kernels are assembly — so on an
	// index built without the option these two, and with them the
	// BlockVerified/ScalarVerified split, differ between an AVX2 host and a
	// portable one (both 0 there), while rows and every other counter do
	// not.
	QuantScreened int64
	QuantSurvived int64

	// IndexedBuckets counts buckets whose sorted lists were actually built —
	// LEMP builds them lazily (§4.2).
	IndexedBuckets int

	// Tunings counts sample-tuning passes (§4.4) actually executed by the
	// call; TuneCacheHits counts tuning phases answered by restoring
	// parameters from a TuningCache instead. A warm-cache call reports
	// Tunings == 0 — the assertion that repeat-call tuning cost is gone.
	Tunings       int
	TuneCacheHits int

	// Phase times. For a single retrieval call each is that call's
	// wall-clock time; under Add (and therefore in any cumulative or
	// cross-shard aggregate, like a server's /stats) their semantics
	// diverge and consumers must not mix them up:
	//
	//   - PrepTime is one-time index preprocessing (bucketization, sorting,
	//     normalization). Add takes the MAX, and a sharded server sums the
	//     per-shard maxima — so at the server level it is total build cost,
	//     reported identically by every call.
	//   - TuneTime and RetrievalTime SUM across calls and across shards:
	//     a cumulative value is total worker time, not wall clock. Four
	//     shards scanning concurrently for 1ms report 4ms of RetrievalTime.
	PrepTime      time.Duration // bucketization + sorting + normalization
	TuneTime      time.Duration // sample-based algorithm selection (§4.4)
	RetrievalTime time.Duration // the retrieval phase itself
}

// Add accumulates another run's stats into s: work counters and the
// per-call phase times (tuning, retrieval) sum, while Buckets,
// IndexedBuckets and PrepTime take the maximum — they describe index
// state, not per-run work (every call re-reports the same one-time
// preprocessing cost, so summing PrepTime would multiply it by the call
// count). Long-lived servers use this to expose cumulative stats across
// many retrieval calls.
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
	if o.Buckets > s.Buckets {
		s.Buckets = o.Buckets
	}
	if o.IndexedBuckets > s.IndexedBuckets {
		s.IndexedBuckets = o.IndexedBuckets
	}
	if o.PrepTime > s.PrepTime {
		s.PrepTime = o.PrepTime
	}
	s.TuneTime += o.TuneTime
	s.RetrievalTime += o.RetrievalTime
}

// TotalTime returns preprocessing + tuning + retrieval, the paper's
// "total wall-clock time" (Figs. 5–7, Tables 3–6).
func (s Stats) TotalTime() time.Duration {
	return s.PrepTime + s.TuneTime + s.RetrievalTime
}

// CandidatesPerQuery returns the average candidate set size per query, the
// parenthesized |C|/q column of Tables 3–6.
func (s Stats) CandidatesPerQuery() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Candidates) / float64(s.Queries)
}
