package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"lemp/internal/l2ap"
	"lemp/internal/lsh"
	"lemp/internal/matrix"
	"lemp/internal/naive"
	"lemp/internal/retrieval"
	"lemp/internal/vecmath"
)

// The RunOptions.Gen hook under test generators: an exact one (L2AP) and an
// approximate one (BayesLSH-Lite), built directly on internal/l2ap and
// internal/lsh the way internal/bench's LEMP-X baselines are. They pin, from
// inside the package, that the scan verifies whatever a generator proposes
// exactly and keeps its own pruning around it.

// lazyBuckets holds a generator's per-bucket state, built on first use.
type lazyBuckets[T any] struct {
	mu sync.Mutex
	m  map[Bucket]T
}

func (l *lazyBuckets[T]) get(b Bucket, build func(Bucket) T) T {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.m[b]
	if !ok {
		if l.m == nil {
			l.m = make(map[Bucket]T)
		}
		v = build(b)
		l.m[b] = v
	}
	return v
}

// testL2APGen builds each bucket's L2AP index for t0 = θ/(qmax·l_b), or for
// t0 = 0 when qmax is 0 (Row-Top-k, or a generator shared by calls over
// different query panels, which then all see the same candidate sets).
type testL2APGen struct {
	theta, qmax float64
	indexes     lazyBuckets[*l2ap.Index]
}

// newTestL2APGen returns the generator one call answering p over q makes.
func newTestL2APGen(q *matrix.Matrix, p Problem) *testL2APGen {
	g := new(testL2APGen)
	if p.K == 0 && q.N() > 0 {
		g.theta, g.qmax = p.Theta, slices.Max(q.Lengths())
	}
	return g
}

func (g *testL2APGen) Worker() GenFunc {
	s := l2ap.NewScratch(0, 0)
	return func(b Bucket, q Pair, cand []int32) ([]int32, int) {
		if q.ThetaB <= 0 {
			return cand, b.Size()
		}
		return g.indexes.get(b, g.build).Candidates(q.Dir, q.ThetaB, s, cand), 0
	}
}

func (g *testL2APGen) build(b Bucket) *l2ap.Index {
	var t0 float64
	if g.qmax > 0 && b.MaxLen() > 0 {
		t0 = vecmath.Clamp(g.theta/(g.qmax*b.MaxLen()), 0, 1)
	}
	dirs := matrix.New(b.R(), b.Size())
	for lid := 0; lid < b.Size(); lid++ {
		vecmath.Normalize(dirs.Vec(lid), b.Row(lid))
	}
	return l2ap.Build(dirs.Vec, b.Size(), b.R(), t0)
}

// testBLSHGen keeps, of a bucket's length-qualified prefix, the vectors
// whose 32-bit signature agrees with the query's in at least MinMatches(θ_b)
// bits at ε = 0.03, hyperplanes drawn from seed 1, as internal/bench's are.
type testBLSHGen struct {
	hasher *lsh.Hasher
	table  *lsh.Table
	sigs   lazyBuckets[[]uint64]
}

const testBLSHBits = 32

func newTestBLSHGen(ix *Index) *testBLSHGen {
	rng := rand.New(rand.NewSource(1))
	return &testBLSHGen{hasher: lsh.NewHasher(ix.R(), testBLSHBits, rng), table: lsh.NewTable(testBLSHBits, 0.03)}
}

func (g *testBLSHGen) Worker() GenFunc {
	qsig := make(map[int32]uint64)
	return func(b Bucket, q Pair, cand []int32) ([]int32, int) {
		sig, ok := qsig[q.QI]
		if !ok {
			sig = g.hasher.Signature(q.Dir)
			qsig[q.QI] = sig
		}
		sigs, need := g.sigs.get(b, g.sign), g.table.MinMatches(q.ThetaB)
		for lid := range b.LengthPrefix(q.Theta / q.Len) {
			if lsh.Matches(sig, sigs[lid], testBLSHBits) >= need {
				cand = append(cand, int32(lid))
			}
		}
		return cand, 0
	}
}

func (g *testBLSHGen) sign(b Bucket) []uint64 {
	sigs := make([]uint64, b.Size())
	for lid := range sigs {
		sigs[lid] = g.hasher.Signature(b.Row(lid))
	}
	return sigs
}

// genAbove answers Above-θ over q with the generator.
func genAbove(t *testing.T, ix *Index, q *matrix.Matrix, theta float64, gen CandidateGen) []retrieval.Entry {
	t.Helper()
	var out []retrieval.Entry
	if _, _, err := ix.Retrieve(context.Background(), q, Problem{Theta: theta}, retrieval.Collect(&out), RunOptions{Gen: gen}); err != nil {
		t.Fatal(err)
	}
	return out
}

// BLSH is approximate but one-sided: every Above-θ entry it returns is a
// true one, and it finds at least 85 % of them.
func TestBLSHSubsetAndRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := genMatrix(rng, 80, 12, 0.8, 1, false, 0, 0)
	p := genMatrix(rng, 400, 12, 0.8, 1, false, 0, 0)
	theta, _ := safeTheta(t, q, p, 400)
	var want []retrieval.Entry
	naive.AboveTheta(q, p, theta, retrieval.Collect(&want))

	ix, err := NewIndex(p, testOptions(AlgLI))
	if err != nil {
		t.Fatal(err)
	}
	got := genAbove(t, ix, q, theta, newTestBLSHGen(ix))

	type pair struct{ q, p int }
	truth := make(map[pair]bool, len(want))
	for _, e := range want {
		truth[pair{e.Query, e.Probe}] = true
	}
	for _, e := range got {
		if !truth[pair{e.Query, e.Probe}] {
			t.Fatalf("BLSH returned false positive (%d,%d)=%g with θ=%g", e.Query, e.Probe, e.Value, theta)
		}
	}
	recall := float64(len(got)) / float64(len(want))
	if recall < 0.85 { // ε=0.03 per candidate; 0.85 leaves slack for variance
		t.Errorf("BLSH recall %.3f too low (%d/%d)", recall, len(got), len(want))
	}
}

// BLSH in Row-Top-k mode: the returned values must still be exact products
// of real probes (only membership is approximate).
func TestBLSHRowTopKValuesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	q := genMatrix(rng, 40, 10, 0.8, 1, false, 0, 0)
	p := genMatrix(rng, 300, 10, 0.8, 1, false, 0, 0)
	ix, err := NewIndex(p, testOptions(AlgLI))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.Retrieve(context.Background(), q, Problem{K: 5}, nil, RunOptions{Gen: newTestBLSHGen(ix)})
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := naive.RowTopK(q, p, 5)
	var sumExact, sumGot float64
	for i, row := range got {
		if len(row) != 5 {
			t.Fatalf("row %d has %d entries", i, len(row))
		}
		for j, e := range row {
			want := q.Product(p, i, e.Probe)
			if math.Abs(e.Value-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("row %d: value %g is not the product %g", i, e.Value, want)
			}
			sumGot += e.Value
			sumExact += exact[i][j].Value
		}
	}
	// Aggregate quality: the approximate top-k mass should be close to
	// the exact mass (ε = 0.03 per candidate).
	if sumGot < 0.9*sumExact {
		t.Errorf("BLSH top-k mass %.3f far below exact %.3f", sumGot, sumExact)
	}
}

// L2AP's per-bucket index depends on the call's threshold: a low-θ call
// after a high-θ one on the same Index must find every entry, which it
// would not if anything built for the larger t0 leaked into it.
func TestL2APIndexRebuildOnSmallerThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(126))
	q := genMatrix(rng, 40, 8, 0.8, 1, false, 0, 0)
	p := genMatrix(rng, 250, 8, 0.8, 1, false, 0, 0)
	thetaHigh, _ := safeTheta(t, q, p, 20)
	thetaLow, _ := safeTheta(t, q, p, 600)
	if thetaLow >= thetaHigh {
		t.Fatalf("levels collapsed: θ %g then %g", thetaHigh, thetaLow)
	}
	ix, err := NewIndex(p, testOptions(AlgLI))
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{thetaHigh, thetaLow} {
		var want []retrieval.Entry
		naive.AboveTheta(q, p, theta, retrieval.Collect(&want))
		prob := Problem{Theta: theta}
		if got := genAbove(t, ix, q, theta, newTestL2APGen(q, prob)); !retrieval.EqualSets(got, want) {
			t.Fatalf("θ=%g: %d entries, oracle %d", theta, len(got), len(want))
		}
	}
}
