package lemp

// What a serving layer that partitions a probe catalog across several
// indexes reads from each: its estimated scan cost and its live probe set.

// EstimatedCost is the index's scan cost under its current bucketization
// (delta buckets included): Σ over live probes of their bucket's length
// bound l_b. It is the per-shard quantity add routing balances and a
// placement-skew gauge reports.
func (ix *Index) EstimatedCost() float64 { return ix.inner.EstimatedCost() }

// LiveProbes materializes the index's live probe set as a fresh matrix
// with its external ids in ascending order — the gather step when a shard
// set is re-partitioned.
func (ix *Index) LiveProbes() (*Matrix, []int32) { return ix.inner.LiveProbes() }

// Options returns the effective (defaulted) options the index was built
// or restored with.
func (ix *Index) Options() Options { return ix.inner.Options() }
