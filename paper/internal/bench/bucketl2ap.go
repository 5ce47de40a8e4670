package bench

import (
	"slices"

	"lemp/internal/core"
	"lemp/internal/matrix"
	"lemp/internal/vecmath"
	"lemp/paper/internal/l2ap"
)

// l2apGen generates candidates with a per-bucket L2AP index (LEMP-L2AP,
// §6.3), built on first use for the smallest local threshold of the call,
// t0 = θ/(max‖q‖·l_b); each query probes it with its own θ_b(q). Row-Top-k
// builds with t0 = 0, its running threshold being unknown a priori — L2AP's
// structural disadvantage inside LEMP, as the paper notes.
type l2apGen struct {
	theta, qmax float64 // Above-θ only
	indexes     perBucket[*l2ap.Index]
}

func newL2APGen(q *matrix.Matrix, p core.Problem) *l2apGen {
	g := new(l2apGen)
	if p.K == 0 && q.N() > 0 {
		g.theta, g.qmax = p.Theta, slices.Max(q.Lengths())
	}
	return g
}

func (g *l2apGen) Worker() core.GenFunc {
	s := l2ap.NewScratch(0, 0) // grows to the buckets it meets
	return func(b core.Bucket, q core.Pair, cand []int32) ([]int32, int) {
		if q.ThetaB <= 0 {
			return cand, b.Size()
		}
		return g.indexes.get(b, g.build).Candidates(q.Dir, q.ThetaB, s, cand), 0
	}
}

func (g *l2apGen) build(b core.Bucket) *l2ap.Index {
	var t0 float64
	if g.qmax > 0 && b.MaxLen() > 0 {
		t0 = vecmath.Clamp(g.theta/(g.qmax*b.MaxLen()), 0, 1)
	}
	dirs := matrix.New(b.R(), b.Size()) // L2AP indexes unit vectors: normalize a copy
	for lid := 0; lid < b.Size(); lid++ {
		vecmath.Normalize(dirs.Vec(lid), b.Row(lid))
	}
	return l2ap.Build(dirs.Vec, b.Size(), b.R(), t0)
}
