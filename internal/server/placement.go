package server

import (
	"fmt"

	"lemp"
	"lemp/internal/kmeans"
)

// Shard placement: how a probe catalog is partitioned across shards, at
// build and at every re-placement. Placement decides nothing else: every
// retrieval fans out to every shard, and adds follow one rule whatever the
// kind (Sharded.Update).

// PlacementKind names a shard-placement strategy.
type PlacementKind string

const (
	// PlaceRange is the equal-count contiguous split: shard i holds probe
	// columns [i·n/S, (i+1)·n/S). The default, and the layout snapshots
	// without placement metadata restore as.
	PlaceRange PlacementKind = "range"
	// PlaceCost partitions contiguously by estimated scan cost — each
	// probe weighted by the l_b of the bucket it lands in — so skewed
	// length distributions no longer leave shards with unequal work.
	PlaceCost PlacementKind = "cost"
	// PlaceCluster groups directionally similar probes per shard
	// (spherical k-means, seeded by Options.Seed).
	PlaceCluster PlacementKind = "cluster"
)

// ParsePlacement resolves a placement-strategy name (e.g. a -placement
// flag value).
func ParsePlacement(s string) (PlacementKind, error) {
	switch k := PlacementKind(s); k {
	case PlaceRange, PlaceCost, PlaceCluster:
		return k, nil
	}
	return "", fmt.Errorf("server: unknown placement %q (want range, cost or cluster)", s)
}

// clusterIters bounds the spherical k-means refinement when building a
// cluster placement; the run is deterministic in Options.Seed.
const clusterIters = 25

// shardPart is one shard's slice of a partitioned catalog.
type shardPart struct {
	probe *lemp.Matrix
	ids   []int32
}

// partitionProbes splits the catalog into nShards parts under the given
// placement strategy. ids[i] names probe column i (nil = identity).
// Range and cost parts alias the probe matrix (contiguous slices); cluster
// parts are gathered copies. Cluster parts can be empty — a cluster the
// k-means run left without members — which is legal shard content.
func partitionProbes(kind PlacementKind, probe *lemp.Matrix, ids []int32, nShards int, opts lemp.Options) ([]shardPart, error) {
	n := probe.N()
	colID := func(col int) int32 {
		if ids != nil {
			return ids[col]
		}
		return int32(col)
	}
	contiguous := func(bounds []int) []shardPart {
		parts := make([]shardPart, len(bounds)-1)
		for i := range parts {
			lo, hi := bounds[i], bounds[i+1]
			part := shardPart{probe: probe.Slice(lo, hi), ids: make([]int32, hi-lo)}
			for j := range part.ids {
				part.ids[j] = colID(lo + j)
			}
			parts[i] = part
		}
		return parts
	}
	equalCount := func() []shardPart {
		bounds := make([]int, nShards+1)
		for i := range bounds {
			bounds[i] = i * n / nShards
		}
		return contiguous(bounds)
	}
	switch kind {
	case PlaceRange:
		return equalCount(), nil
	case PlaceCost:
		weights := lemp.ScanCostWeights(probe, opts)
		total := 0.0
		for _, w := range weights {
			total += w
		}
		if total <= 0 {
			// Degenerate catalog (all-zero lengths): cost carries no
			// signal, fall back to equal count.
			return equalCount(), nil
		}
		bounds := make([]int, nShards+1)
		bounds[nShards] = n
		cum := 0.0
		hi := 0
		for i := 0; i < nShards-1; i++ {
			// Cut where the running mass reaches this shard's share, but
			// give every shard at least one probe and leave one for each
			// shard after it.
			target := total * float64(i+1) / float64(nShards)
			if hi < bounds[i]+1 {
				hi = bounds[i] + 1
				cum += weights[hi-1]
			}
			for hi < n-(nShards-1-i) && cum < target {
				cum += weights[hi]
				hi++
			}
			bounds[i+1] = hi
		}
		return contiguous(bounds), nil
	case PlaceCluster:
		res := kmeans.Spherical(probe, nShards, clusterIters, opts.Seed)
		counts := make([]int, nShards)
		for _, c := range res.Assign {
			counts[c]++
		}
		parts := make([]shardPart, nShards)
		r := probe.R()
		for i := range parts {
			parts[i] = shardPart{probe: lemp.NewMatrix(r, counts[i]), ids: make([]int32, 0, counts[i])}
		}
		fill := make([]int, nShards)
		for col := 0; col < n; col++ {
			c := res.Assign[col]
			copy(parts[c].probe.Vec(fill[c]), probe.Vec(col))
			fill[c]++
			parts[c].ids = append(parts[c].ids, colID(col))
		}
		return parts, nil
	}
	return nil, fmt.Errorf("server: unknown placement %q", kind)
}
