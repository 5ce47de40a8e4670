package core

import (
	"sort"

	"lemp/internal/matrix"
)

// Shard-placement support: the serving layer partitions a probe catalog
// across independent indexes. This file exposes what a placement strategy
// needs from core: the per-probe scan-cost weight implied by the
// bucketization, and an index's estimated scan cost under it.

// ScanCostWeights estimates the per-probe scan cost the index built over p
// would incur: probe i's weight is the l_b of the bucket it would land in
// (bucket bound work scales with bucket length mass, not row count — a
// bucket's every member is bounded through its longest vector). The
// boundaries come from the exact bucketize logic, so cost-balanced
// placement partitions by the work the built indexes will actually do.
func ScanCostWeights(p *matrix.Matrix, opts Options) []float64 {
	opts = opts.withDefaults()
	n := p.N()
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	lens := p.Lengths()
	sort.SliceStable(order, func(a, b int) bool { return lens[order[a]] > lens[order[b]] })
	sorted := make([]float64, n)
	for i, id := range order {
		sorted[i] = lens[id]
	}
	for _, sp := range bucketSpans(sorted, opts.ShrinkFactor, opts.MinBucketSize, bucketCapFor(opts, p.R())) {
		lb := sorted[sp[0]]
		for i := sp[0]; i < sp[1]; i++ {
			out[order[i]] = lb
		}
	}
	return out
}

// EstimatedCost sums the live probes' scan-cost weights under the current
// bucketization (every segment's buckets): Σ over live entries of their
// bucket's l_b. It is the quantity cost-balanced placement equalizes across
// shards and the placement-skew gauge reports.
func (ix *Index) EstimatedCost() float64 {
	var cost float64
	for bi, b := range ix.scan {
		live := b.size()
		if ix.dead != nil {
			live -= int(ix.dead[bi].n)
		}
		cost += float64(live) * b.lb
	}
	return cost
}

// LiveProbes materializes the live probe set — every segment's
// untombstoned vectors — as a fresh matrix with its ids in ascending order,
// the gather step of a shard re-placement.
func (ix *Index) LiveProbes() (*matrix.Matrix, []int32) {
	live := make([]liveVec, 0, ix.LiveN())
	for _, s := range ix.segs {
		ix.eachLive(s, ix.dead, func(col int) { live = append(live, liveVec{s.ids[col], s.vecs.Vec(col)}) })
	}
	sort.Slice(live, func(a, b int) bool { return live[a].id < live[b].id })
	return ix.materialize(live)
}
