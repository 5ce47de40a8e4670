package core

import "sync"

// Cross-call reuse of the sample-based algorithm selection (§4.4). Tuning
// costs a sample of real retrievals per call — roughly 10× the marginal
// per-query retrieval work on small batches — which a one-shot run amortizes
// over a large query matrix but a serving system re-pays on every small
// request. A TuningCache remembers the fitted per-bucket (t_b, φ_b) keyed by
// everything that determines them: the exact index version (instance, epoch
// and bucket layout) and the problem (k or θ). A fit is an immutable value,
// so a warm hit is a map lookup: the call scans under the cached slice itself
// and skips sample tuning entirely.

// TuningCache caches fitted per-bucket tuning parameters across retrieval
// calls. It is safe for concurrent use by multiple goroutines and may be
// shared across indexes: keys
// embed a unique per-index instance id, so entries never cross indexes.
//
// Entries are invalidated implicitly: any probe mutation advances the index
// epoch and any re-bucketization (Compact, delta rebuild) advances the
// layout generation, both part of the key, so a stale entry can never be
// applied to a changed index. Stale entries are dropped wholesale when the
// cache reaches its entry bound.
type TuningCache struct {
	mu      sync.Mutex
	entries map[tuneCacheKey][]tunedParam
	hits    uint64
	misses  uint64
}

// tuningCacheMaxEntries bounds the cache; distinct keys accumulate with
// epoch churn, so the map is cleared wholesale when full (entries for live
// index versions re-fill on the next call at one tuning pass each).
const tuningCacheMaxEntries = 1024

// tuneCacheKey identifies one fitted parameter set.
type tuneCacheKey struct {
	index  uint64 // Index instance id (indexSeq); fixes its Options too
	epoch  uint64 // mutation epoch
	layout uint64 // bucketization generation (delta rebuilds, Compact)
	prob   Problem
}

// tunedParam is one bucket's §4.4 selection. A fit is a []tunedParam aligned
// with Index.scan, immutable once published: the one type a Job, a
// TuningCache entry and an index's frozen slot hold, read only by resolve. A
// nil fit, and an entry with tuned unset, mean the defaults.
type tunedParam struct {
	tuned bool
	tb    float64 // use LENGTH when θ_b(q) < tb
	phi   int     // focus-set size for COORD/INCR
}

// fitEntry returns scan bucket bi's entry in fit, the untuned one when fit is
// nil.
func fitEntry(fit []tunedParam, bi int) tunedParam {
	if fit == nil {
		return tunedParam{}
	}
	return fit[bi]
}

// NewTuningCache returns an empty tuning cache.
func NewTuningCache() *TuningCache {
	return &TuningCache{entries: make(map[tuneCacheKey][]tunedParam)}
}

// Hits reports lookups that restored cached parameters.
func (tc *TuningCache) Hits() uint64 {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.hits
}

// Misses reports lookups that found nothing and paid a tuning pass.
func (tc *TuningCache) Misses() uint64 {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.misses
}

// Len reports the number of cached parameter sets.
func (tc *TuningCache) Len() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return len(tc.entries)
}

func (tc *TuningCache) get(key tuneCacheKey) ([]tunedParam, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	params, ok := tc.entries[key]
	if ok {
		tc.hits++
	} else {
		tc.misses++
	}
	return params, ok
}

func (tc *TuningCache) put(key tuneCacheKey, params []tunedParam) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if len(tc.entries) >= tuningCacheMaxEntries {
		tc.entries = make(map[tuneCacheKey][]tunedParam)
	}
	tc.entries[key] = params
}

// tuneCacheKey builds the cache key for this index at its current version
// and the problem.
func (ix *Index) tuneCacheKey(prob Problem) tuneCacheKey {
	return tuneCacheKey{index: ix.id, epoch: ix.epoch, layout: ix.layout, prob: prob}
}
