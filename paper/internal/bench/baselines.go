package bench

import (
	"sync"

	"lemp/internal/core"
	"lemp/internal/matrix"
)

// variant is one LEMP-X variant of §6.3 (Fig. 7, Tables 5–6): core bucket
// algorithm alg, or, with gen set, one of the baselines the paper runs inside
// LEMP's buckets — TA, cover trees, L2AP, BayesLSH-Lite (bucket*.go) — whose
// generator gen makes for one call. They reach the scan through the core's
// candidate-generator hook (core.RunOptions.Gen), which keeps pruning,
// tombstones, the int8 screen and verification its own.
type variant struct {
	name string
	alg  core.Algorithm
	gen  func(ix *core.Index, q *matrix.Matrix, p core.Problem) core.CandidateGen
}

func bucketAlg(a core.Algorithm) variant { return variant{name: a.String(), alg: a} }

// baselines are the generator-backed variants, in the paper's order.
var baselines = []variant{
	{name: "TA", gen: func(*core.Index, *matrix.Matrix, core.Problem) core.CandidateGen { return taGen{} }},
	{name: "Tree", gen: func(*core.Index, *matrix.Matrix, core.Problem) core.CandidateGen { return new(treeGen) }},
	{name: "L2AP", gen: func(_ *core.Index, q *matrix.Matrix, p core.Problem) core.CandidateGen { return newL2APGen(q, p) }},
	{name: "BLSH", gen: func(ix *core.Index, _ *matrix.Matrix, _ core.Problem) core.CandidateGen { return newBLSHGen(ix) }},
}

// runOptions carries a generator variant's generator for one call answering
// p over q; a bucket algorithm is the index's, set when it is built.
func (v variant) runOptions(ix *core.Index, q *matrix.Matrix, p core.Problem) core.RunOptions {
	var ro core.RunOptions
	if v.gen != nil {
		ro.Gen = v.gen(ix, q, p)
	}
	return ro
}

// perBucket holds a generator's lazily built state per bucket, race-safe:
// the first worker to reach a bucket builds its entry, others wait for it.
type perBucket[T any] struct{ m sync.Map } // core.Bucket → *lazy[T]

type lazy[T any] struct {
	once sync.Once
	v    T
}

func (pb *perBucket[T]) get(b core.Bucket, build func(core.Bucket) T) T {
	e, ok := pb.m.Load(b)
	if !ok {
		e, _ = pb.m.LoadOrStore(b, new(lazy[T]))
	}
	l := e.(*lazy[T])
	l.once.Do(func() { l.v = build(b) })
	return l.v
}
