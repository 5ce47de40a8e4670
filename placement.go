package lemp

import (
	"lemp/internal/core"
)

// Shard-placement support for serving layers that partition a probe
// catalog across several indexes: the per-probe scan-cost weight implied by
// the bucketization and its sum over an index, what cost-balanced placement
// equalizes and the serving layer's add routing compares.

// ShardPlacement describes how a snapshotted shard was placed: the
// placement strategy name (the serving layer's vocabulary, e.g. "cost" or
// "cluster"). It is persisted as the snapshot PLMT section.
type ShardPlacement struct {
	Kind string
}

// ScanCostWeights estimates each probe column's scan cost under the
// bucketization the given options would build: a probe's weight is the l_b
// of the bucket it would land in, since bucket-bound work scales with
// length mass rather than row count. Cost-balanced shard placement
// partitions on these weights.
func ScanCostWeights(p *Matrix, opts Options) []float64 {
	return core.ScanCostWeights(p, opts)
}

// EstimatedCost sums the live probes' scan-cost weights under the index's
// current bucketization (delta buckets included): the per-shard quantity a
// cost-balanced placement equalizes and a placement-skew gauge reports.
func (ix *Index) EstimatedCost() float64 { return ix.inner.EstimatedCost() }

// LiveProbes materializes the index's live probe set as a fresh matrix
// with its external ids in ascending order — the gather step when a shard
// set is re-partitioned.
func (ix *Index) LiveProbes() (*Matrix, []int32) { return ix.inner.LiveProbes() }

// Options returns the effective (defaulted) options the index was built
// or restored with.
func (ix *Index) Options() Options { return ix.inner.Options() }
