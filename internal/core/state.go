package core

import (
	"fmt"
	"time"

	"lemp/internal/matrix"
)

// State is the serializable snapshot of an Index: the effective options,
// the live probes with their ids, the mutation marks and the retained tuning
// sample. It is the contract between core and internal/snapshot: Index.State
// exports it, FromState builds an index from it. It holds nothing a build
// derives from the probes — not the bucketization (§3.2), not the lengths,
// directions, sorted lists or int8 sidecars — and no fit (§4.4): a restore
// fits again on the retained sample.
//
// Index.State copies the probes and their ids out of the index, in scan
// order: the order the buckets of the index's compaction hold them, which
// a restore takes as its bucket layout as it stands. TuneSample aliases the
// index's retained sample and must not be mutated.
type State struct {
	Opts  Options
	Probe *matrix.Matrix

	// IDs maps probe column → external id; nil means the identity mapping
	// (column numbers are the ids), as in a file that stored none. Index.State
	// always sets it.
	IDs []int32
	// Epoch is the mutation epoch (delta.go); NextID the next AutoID
	// assignment. A zero NextID means "derive from the ids".
	Epoch  uint64
	NextID int32

	// Retained tuning sample (§4.4) of a pretuned index: the query sample
	// and problem a Pretune call fitted. FromState pretunes on them, so a
	// restored index is pretuned too. TuneSample nil means the index was not
	// pretuned; TuneProblem is the problem it was fitted for.
	TuneSample  *matrix.Matrix
	TuneProblem Problem
}

// State exports the index's serializable state: its live probes copied into
// one matrix beside their ids, in scan order — the column order a Compact
// would give them (the base segment's live columns in column order, then
// the newer runs' live vectors by ascending id) stably sorted by decreasing
// length, the order the compaction's buckets hold them. An unmutated index
// is its own compaction and exports its bucket rows as they are; only a
// mutated one sorts. It only reads, so it may run beside retrievals, and
// what it exports does not depend on which were answered. A mutated index
// exports the state of its compaction without compacting: loading it
// answers queries identically to the mutated index.
func (ix *Index) State() *State {
	st := &State{Opts: ix.opts, Epoch: ix.epoch, NextID: ix.nextID}
	if ix.mutated() {
		st.Probe, st.IDs = ix.compactionProbes()
	} else {
		base := ix.segs[0]
		st.Probe, st.IDs = matrix.New(ix.r, len(base.ids)), make([]int32, 0, len(base.ids))
		at := st.Probe.Data()
		for _, b := range base.buckets {
			at = at[copy(at, b.rows):]
			st.IDs = append(st.IDs, b.ids...)
		}
	}
	if ix.pretuned {
		st.TuneSample, st.TuneProblem = ix.tuneSample, ix.tuneProb
	}
	return st
}

// compactionProbes returns the live probes of a mutated index and their ids
// in the order its compaction's buckets would hold them: the compaction's
// column order (mergeColumns), stably sorted by decreasing length.
func (ix *Index) compactionProbes() (*matrix.Matrix, []int32) {
	c := ix.mergeColumns(ix.segs, true, ix.dead, nil)
	order, _ := byDecreasingLength(c.lens, ix.opts.Parallelism)
	p, ids := matrix.New(ix.r, len(order)), make([]int32, len(order))
	for col, i := range order {
		ids[col] = c.ids[i]
		copy(p.Vec(col), c.vec(int(i)))
	}
	return p, ids
}

// Pretuned reports whether per-call tuning is frozen: the index reuses its
// stored per-bucket parameters instead of re-tuning on every retrieval.
func (ix *Index) Pretuned() bool { return ix.pretuned }

// FromState builds an index from an exported state: NewIndexWithIDs over
// the state's probes, options and ids — every probe obeys the build's rule,
// and no bucket is quantized: its sidecar is built on first screened use —
// at the state's epoch and AutoID mark, then, when the state retains a
// tuning sample, Pretune on it. Under Options.TuneByCost that fit equals the
// exporting index's bucket for bucket; under wall-clock tuning it is
// measured again.
// Answers are exact either way. FromState takes ownership of st.Probe and
// st.IDs, which the caller must not modify afterwards: a state in scan order
// (Index.State's) becomes the index's buckets where it lies, any other
// order is sorted and copied into bucket rows as a build does. The sample
// is cloned.
func FromState(st *State) (*Index, error) {
	start := time.Now()
	if st.Probe == nil {
		return nil, fmt.Errorf("core: state has no probe matrix")
	}
	ix, err := newIndex(st.Probe, st.IDs, st.Opts, true)
	if err != nil {
		return nil, err
	}
	if st.NextID > ix.nextID {
		ix.nextID = st.NextID
	}
	ix.epoch = st.Epoch
	if st.TuneSample != nil {
		if err := ix.Pretune(st.TuneSample, st.TuneProblem); err != nil {
			return nil, fmt.Errorf("core: retained tuning sample: %w", err)
		}
	}
	ix.prepTime = time.Since(start)
	return ix, nil
}
