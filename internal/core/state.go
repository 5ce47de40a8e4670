package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"lemp/internal/matrix"
)

// State is the serializable snapshot of an Index: the probe matrix, the
// effective options, and the bucketization (§3.2) with any tuned per-bucket
// parameters (§4.4). It is the contract between core and internal/snapshot:
// Index.State exports it, FromState rebuilds an index from it by
// bucketizing the probes again, requiring the stored buckets to be the ones
// it derives, and adopting their fit and sorted lists, so a restore skips
// only the tuning and the list builds. It holds nothing else FromState can
// derive from the probe matrix: not the members' lengths and directions,
// not the int8 screening sidecars.
//
// The slices returned by Index.State alias the index's internal storage —
// they may be read (serialized) but must not be mutated.
type State struct {
	Opts     Options
	Probe    *matrix.Matrix
	Pretuned bool // per-call tuning is frozen (Index.Pretune)
	Buckets  []BucketState

	// IDs maps probe column → external id; nil means the identity mapping
	// (column numbers are the ids). Indexes built over caller-chosen ids and
	// mutated-then-compacted ones have arbitrary stable ids.
	IDs []int32
	// Epoch is the mutation epoch (delta.go); NextID the next AutoID
	// assignment. A zero NextID means "derive from the ids".
	Epoch  uint64
	NextID int32

	// Retained tuning sample (§4.4). A Pretune call keeps the query sample
	// and problem it fitted so Compact can re-freeze the parameters after a
	// re-bucketization; persisting them lets a snapshot-restored pretuned
	// index do the same instead of silently dropping back to defaults.
	// TuneSample nil means no sample was retained; TuneProblem is the
	// problem it was fitted for.
	TuneSample  *matrix.Matrix
	TuneProblem Problem
}

// BucketState is the serializable state of one probe bucket: the sorted
// membership (§3.2) and the bucket's entry in the frozen fit of a pretuned
// index (§4.4; Tuned is false throughout the state of one that is not).
// The int8 sidecars are not part of the state and are rebuilt lazily after
// a restore; the sorted-list index — the one COORD/INCR rebuild on a
// restored server's first batch, dominating post-restore latency — can
// optionally ride along (ListVals/ListLids, persisted as the snapshot SLST
// section).
type BucketState struct {
	IDs   []int32 // external probe ids, by decreasing length
	Tuned bool
	TB    float64
	Phi   int

	// Sorted-list index (§4.2, Fig. 4c), both len(IDs) × r in
	// coordinate-major layout (list f occupies [f·n, (f+1)·n)), or nil when
	// the bucket's lists were never built. FromState verifies they are
	// exactly what buildLists would produce from the directions — a
	// corrupted or hand-edited list index fails to load rather than
	// mis-pruning.
	ListVals []float64
	ListLids []int32
}

// State exports the index's serializable state. The contained slices alias
// index storage and must not be mutated. It only reads, so it may run beside
// retrievals, and what it exports does not depend on which were answered —
// except for the sorted lists they have built so far.
//
// A mutated index (a tombstone or a run) is compacted on export — into a
// private copy, the receiver is unchanged — so the state always describes
// one tombstone-free segment over the live probe set with external ids
// preserved. Loading it answers queries identically to the mutated index.
func (ix *Index) State() *State {
	if ix.mutated() {
		cp := ix.shallowClone()
		cp.Compact()
		return cp.State()
	}
	st := &State{
		Opts:     ix.opts,
		Probe:    ix.Probe(),
		Pretuned: ix.pretuned,
		Buckets:  make([]BucketState, len(ix.scan)),
		IDs:      ix.ProbeIDs(),
		Epoch:    ix.epoch,
		NextID:   ix.nextID,
	}
	if ix.pretuned && ix.tuneSample != nil {
		st.TuneSample, st.TuneProblem = ix.tuneSample, ix.tuneProb
	}
	for i, b := range ix.scan { // the base segment's buckets: nothing else is left
		p := fitEntry(ix.frozen, i)
		st.Buckets[i] = BucketState{IDs: b.ids, Tuned: p.tuned, TB: p.tb, Phi: p.phi}
		if l := b.lists.Load(); l != nil {
			st.Buckets[i].ListVals = l.vals
			st.Buckets[i].ListLids = l.lids
		}
	}
	return st
}

// Probe returns the base segment's raw vectors: the probe matrix the index
// was built over or restored with, or the one its last Compact produced.
// Newer runs are not in it. It aliases index state and must not be mutated.
func (ix *Index) Probe() *matrix.Matrix { return ix.segs[0].vecs }

// Pretuned reports whether per-call tuning is frozen: the index reuses its
// stored per-bucket parameters instead of re-tuning on every retrieval.
func (ix *Index) Pretuned() bool { return ix.pretuned }

// FromState rebuilds an index from an exported state. A restore is a
// build: NewIndexWithIDs bucketizes the state's probes under its options and
// ids (§3.2) — every probe obeys the build's rule, and under
// Options.Quantize every bucket is quantized — and the state's buckets must
// equal the derived ones, member for member, or the state is refused. What a
// restore skips is the tuning (§4.4): the stored fit of a pretuned index is
// adopted onto those buckets, as are the sorted lists a state carries, once
// each is verified against the directions it indexes. So a corrupt or
// hand-edited state fails here instead of serving wrong results. The
// state's probe matrix and lists are adopted, not copied; the caller must
// not reuse them.
func FromState(st *State) (*Index, error) {
	start := time.Now()
	if st.Probe == nil {
		return nil, fmt.Errorf("core: state has no probe matrix")
	}
	ix, err := NewIndexWithIDs(st.Probe, st.IDs, st.Opts)
	if err != nil {
		return nil, err
	}
	r := ix.r
	if st.TuneSample != nil && st.Pretuned {
		if st.TuneSample.R() != r {
			return nil, fmt.Errorf("core: tuning sample dimension %d does not match probe dimension %d", st.TuneSample.R(), r)
		}
		if st.TuneSample.N() == 0 {
			return nil, fmt.Errorf("core: retained tuning sample holds no queries")
		}
		if _, err := prepareQueries(st.TuneSample); err != nil {
			return nil, fmt.Errorf("core: retained tuning sample: %w", err)
		}
		if err := st.TuneProblem.Validate(); err != nil {
			return nil, fmt.Errorf("core: retained tuning problem: %w", err)
		}
		ix.tuneSample, ix.tuneProb = st.TuneSample, st.TuneProblem
	}
	buckets := ix.segs[0].buckets
	if len(st.Buckets) != len(buckets) {
		return nil, fmt.Errorf("core: state has %d buckets, its probes bucketize into %d", len(st.Buckets), len(buckets))
	}
	frozen := make([]tunedParam, len(buckets))
	var listSeen []bool // per-list permutation check scratch, sized on demand
	for i, b := range buckets {
		bs, size := st.Buckets[i], b.size()
		if !slices.Equal(bs.IDs, b.ids) {
			return nil, fmt.Errorf("core: bucket %d does not match the bucketization of the state's probes", i)
		}
		if bs.Tuned && (math.IsNaN(bs.TB) || bs.Phi < 1) {
			return nil, fmt.Errorf("core: bucket %d tuned parameters invalid (tb=%v, phi=%d)", i, bs.TB, bs.Phi)
		}
		frozen[i] = tunedParam{tuned: bs.Tuned, tb: bs.TB, phi: bs.Phi}
		if bs.ListVals != nil || bs.ListLids != nil {
			if len(bs.ListVals) != size*r || len(bs.ListLids) != size*r {
				return nil, fmt.Errorf("core: bucket %d sorted-list shape mismatch: %d vals, %d lids, want %d each",
					i, len(bs.ListVals), len(bs.ListLids), size*r)
			}
			if len(listSeen) < size {
				listSeen = make([]bool, size)
			}
			if err := checkLists(bs.ListVals, bs.ListLids, b.dirs, size, r, listSeen); err != nil {
				return nil, fmt.Errorf("core: bucket %d sorted lists: %w", i, err)
			}
			b.lists.Store(&sortedLists{n: size, vals: bs.ListVals, lids: bs.ListLids})
		}
	}
	if st.Pretuned {
		ix.pretuned, ix.frozen = true, frozen // scan is the base's buckets
	}
	if st.NextID > ix.nextID {
		ix.nextID = st.NextID
	}
	ix.epoch = st.Epoch
	ix.prepTime = time.Since(start)
	return ix, nil
}
