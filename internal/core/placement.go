package core

import (
	"sort"

	"lemp/internal/matrix"
)

// What a sharded serving layer reads from an index beyond retrieval: its
// estimated scan cost, which add routing balances, and its live probe set,
// which a re-placement gathers.

// EstimatedCost is the index's scan cost under its current bucketization
// (every segment's buckets): Σ over live entries of their bucket's l_b, as
// bucket bound work scales with length mass, not row count.
// It is what add routing balances across shards and the placement-skew
// gauge reports.
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
