package lemp

import (
	"lemp/internal/core"
)

// Dynamic probe updates. An Index is no longer frozen at build time: probes
// can be added, removed and replaced by stable external id, with changes
// absorbed by runs scanned alongside the base segment's buckets — a batch's
// new vectors become one immutable run of ordinary buckets, runs merge
// geometrically, and a removed or rewritten probe is a bit in its bucket's
// tombstone bitset — and accumulated drift merged back into one freshly
// bucketized base by Compact. Applying a batch costs O(batch · r + buckets)
// time and allocation, independent of the probe count and of what the runs
// already hold, and tunes nothing (a pretuned index scans a new run on the
// default parameters until Compact); a derived index shares every bucket
// the batch did not retire, and nothing reachable from an index is written
// again once it is published. Results remain exact after any mutation
// sequence: a mutated index answers queries identically to an index freshly
// built over the same live probe set.
//
// Concurrency: a batch never changes the Index it is applied to.
// WithUpdates derives a new index copy-on-write, so serving layers keep
// answering queries on the old one while updates land and swap the new one
// in atomically; see internal/server.

// ProbeUpdate is one mutation of the probe set: an OpAdd, OpRemove or
// OpUpdate addressed by external probe id.
type ProbeUpdate = core.ProbeUpdate

// UpdateOp is the kind of a ProbeUpdate.
type UpdateOp = core.UpdateOp

// Probe mutation kinds.
const (
	// OpAdd inserts a new probe (ID AutoID assigns the next free id).
	OpAdd = core.OpAdd
	// OpRemove deletes a live probe by id.
	OpRemove = core.OpRemove
	// OpUpdate replaces a live probe's vector, keeping its id.
	OpUpdate = core.OpUpdate
)

// AutoID, as the ID of an OpAdd, lets the index assign the next free id.
const AutoID = core.AutoID

// MaxProbeID is the largest assignable external probe id.
const MaxProbeID = core.MaxProbeID

// NewWithIDs is New with caller-chosen external probe ids: ids[i] names
// probe vector i in every result and mutation. ids must be unique and
// non-negative; nil assigns 0..n-1. A catalog rebuilt after mutations
// uses this to keep its ids.
func NewWithIDs(probe *Matrix, ids []int32, opts Options) (*Index, error) {
	inner, err := core.NewIndexWithIDs(probe, ids, opts)
	if err != nil {
		return nil, err
	}
	return &Index{inner: inner}, nil
}

// WithUpdates derives a new index with the batch of probe mutations
// applied, leaving the receiver untouched: the two share every immutable
// segment (copy-on-write), so derivation costs only the batch's work. The
// batch is atomic: it fails unless every op validates, and a non-empty one
// leaves the derived index one epoch past the receiver. The returned slice
// holds each op's affected id (the assigned id for AutoID adds). The
// receiver keeps answering retrievals meanwhile, and afterwards the two
// serve independently of each other.
func (ix *Index) WithUpdates(ups []ProbeUpdate) (*Index, []int32, error) {
	inner, ids, err := ix.inner.WithUpdates(ups)
	if err != nil {
		return nil, nil, err
	}
	return &Index{inner: inner}, ids, nil
}

// Epoch returns the index's mutation epoch: 0 at build, +1 per applied
// update batch. Compaction does not advance it (results are unchanged).
func (ix *Index) Epoch() uint64 { return ix.inner.Epoch() }

// NextID returns the id the next AutoID add would receive.
func (ix *Index) NextID() int32 { return ix.inner.NextID() }

// LiveIDs returns the external ids of all live probes in ascending order.
func (ix *Index) LiveIDs() []int32 { return ix.inner.LiveIDs() }

// LiveProbes materializes the index's live probe set as a fresh matrix
// with its external ids in ascending order — the gather step when a catalog
// is rebuilt, such as a server joining the snapshot set of earlier builds.
func (ix *Index) LiveProbes() (*Matrix, []int32) { return ix.inner.LiveProbes() }

// Options returns the effective (defaulted) options the index was built
// or restored with.
func (ix *Index) Options() Options { return ix.inner.Options() }

// Has reports whether the probe with the given id is live. Like LiveIDs it
// may run beside retrievals.
func (ix *Index) Has(id int32) bool { return ix.inner.Has(id) }

// DeltaMass reports accumulated mutation drift: (base tombstones + run
// vectors) / live probes. See MaybeCompact.
func (ix *Index) DeltaMass() float64 { return ix.inner.DeltaMass() }

// Compact merges every run and the base into one fresh bucketization over
// the live probe set (ids preserved), restoring full pruning effectiveness,
// and pretunes a pretuned index again on its retained sample, as a restore
// of its snapshot does. Results before and after are identical. Exclusive
// with everything else on this index.
func (ix *Index) Compact() { ix.inner.Compact() }

// MaybeCompact compacts when DeltaMass exceeds the threshold, reporting
// whether it did.
func (ix *Index) MaybeCompact(threshold float64) bool { return ix.inner.MaybeCompact(threshold) }
