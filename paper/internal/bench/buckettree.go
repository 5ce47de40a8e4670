package bench

import (
	"math"

	"lemp/internal/core"
	"lemp/internal/matrix"
	"lemp/paper/internal/covertree"
)

// treeGen runs a cover-tree search inside each bucket (LEMP-Tree, §6.3). A
// bucket's tree over its raw vectors is built on first use, so buckets
// pruned by length never pay construction — what lets LEMP-Tree beat the
// standalone tree when preprocessing dominates. The search runs on the unit
// query direction with threshold θ/‖q‖, and every vector whose product it
// computes is a candidate.
type treeGen struct{ trees perBucket[*covertree.Tree] }

func (g *treeGen) Worker() core.GenFunc {
	return func(b core.Bucket, q core.Pair, cand []int32) ([]int32, int) {
		scaled := q.Theta / q.Len
		if math.IsInf(scaled, -1) {
			return cand, b.Size() // unseeded Row-Top-k: skip even the build
		}
		g.trees.get(b, buildTree).SearchAboveTheta(q.Dir, 1, scaled, func(lid int32, _ float64) {
			cand = append(cand, lid)
		})
		return cand, 0
	}
}

func buildTree(b core.Bucket) *covertree.Tree {
	pts := matrix.New(b.R(), b.Size())
	for lid := 0; lid < b.Size(); lid++ {
		copy(pts.Vec(lid), b.Row(lid))
	}
	return covertree.Build(pts, covertree.DefaultBase)
}
