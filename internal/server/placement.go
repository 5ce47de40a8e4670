package server

import (
	"fmt"

	"lemp"
	"lemp/internal/kmeans"
)

// Shard placement: how a probe catalog is partitioned across shards when a
// shard set is built. LEMP prunes per probe, so any partition answers
// exactly; placement decides nothing else: every retrieval fans out to every
// shard, adds follow one rule whatever the kind (Sharded.Update), and
// neither an index nor a snapshot records which kind built it.

// Placement names a shard-placement strategy.
type Placement string

const (
	// PlaceRange is the equal-count contiguous split: shard i holds probe
	// columns [i·n/S, (i+1)·n/S). The default.
	PlaceRange Placement = "range"
	// PlaceCluster groups directionally similar probes per shard
	// (spherical k-means, seeded by Options.Seed).
	PlaceCluster Placement = "cluster"
)

// ParsePlacement resolves a placement-strategy name (e.g. a -placement
// flag value); "" is PlaceRange.
func ParsePlacement(s string) (Placement, error) {
	switch k := Placement(s); k {
	case "":
		return PlaceRange, nil
	case PlaceRange, PlaceCluster:
		return k, nil
	}
	return "", fmt.Errorf("server: unknown placement %q (want range or cluster)", s)
}

// clusterIters bounds the spherical k-means refinement when building a
// cluster placement; the run is deterministic in the seed.
const clusterIters = 25

// shardPart is one shard's slice of a partitioned catalog.
type shardPart struct {
	probe *lemp.Matrix
	ids   []int32
}

// partitionProbes splits the catalog into nShards parts under the given
// placement strategy. ids[i] names probe column i (nil = identity); seed
// seeds cluster placement. Range parts alias the probe matrix (contiguous
// slices); cluster parts are gathered copies. Cluster parts can be empty — a
// cluster the k-means run left without members — which is legal shard
// content.
func partitionProbes(kind Placement, probe *lemp.Matrix, ids []int32, nShards int, seed int64) ([]shardPart, error) {
	n := probe.N()
	colID := func(col int) int32 {
		if ids != nil {
			return ids[col]
		}
		return int32(col)
	}
	switch kind {
	case PlaceRange:
		parts := make([]shardPart, nShards)
		for i := range parts {
			lo, hi := i*n/nShards, (i+1)*n/nShards
			part := shardPart{probe: probe.Slice(lo, hi), ids: make([]int32, hi-lo)}
			for j := range part.ids {
				part.ids[j] = colID(lo + j)
			}
			parts[i] = part
		}
		return parts, nil
	case PlaceCluster:
		res := kmeans.Spherical(probe, nShards, clusterIters, seed)
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
