package bench

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"lemp/internal/core"
	"lemp/internal/matrix"
	"lemp/internal/naive"
	"lemp/internal/retrieval"
)

// Properties of the LEMP-BLSH and LEMP-L2AP generators beyond the
// differential test: BLSH's one-sided error, and L2AP's per-call indexes.

// generatorIndex is a many-bucket index over p.
func generatorIndex(t *testing.T, p *matrix.Matrix) *core.Index {
	t.Helper()
	ix, err := core.NewIndex(p, core.Options{MinBucketSize: 5, CacheBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// genAbove answers Above-θ over q with the generator.
func genAbove(t *testing.T, ix *core.Index, q *matrix.Matrix, theta float64, gen core.CandidateGen) []retrieval.Entry {
	t.Helper()
	var out []retrieval.Entry
	if _, _, err := ix.Retrieve(context.Background(), q, core.Problem{Theta: theta}, retrieval.Collect(&out), core.RunOptions{Gen: gen}); err != nil {
		t.Fatal(err)
	}
	return out
}

// BLSH is approximate but one-sided: every Above-θ entry it returns is a
// true one, and it finds at least 85 % of them.
func TestBLSHGenSubsetAndRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q, p := randMatrix(rng, 12, 80), randMatrix(rng, 12, 400)
	theta := thetaFor(t, q, p, 400)
	var want []retrieval.Entry
	naive.AboveTheta(q, p, theta, retrieval.Collect(&want))

	ix := generatorIndex(t, p)
	got := genAbove(t, ix, q, theta, newBLSHGen(ix))

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
	if recall := float64(len(got)) / float64(len(want)); recall < 0.85 { // ε=0.03 per candidate; 0.85 leaves slack for variance
		t.Errorf("BLSH recall %.3f too low (%d/%d)", recall, len(got), len(want))
	}
}

// BLSH in Row-Top-k mode: the returned values must still be exact products
// of real probes (only membership is approximate).
func TestBLSHGenRowTopKValuesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	q, p := randMatrix(rng, 10, 40), randMatrix(rng, 10, 300)
	ix := generatorIndex(t, p)
	got, _, err := ix.Retrieve(context.Background(), q, core.Problem{K: 5}, nil, core.RunOptions{Gen: newBLSHGen(ix)})
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
func TestL2APGenRebuildOnSmallerThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(126))
	q, p := randMatrix(rng, 8, 40), randMatrix(rng, 8, 250)
	thetaHigh, thetaLow := thetaFor(t, q, p, 20), thetaFor(t, q, p, 600)
	if thetaLow >= thetaHigh {
		t.Fatalf("levels collapsed: θ %g then %g", thetaHigh, thetaLow)
	}
	ix := generatorIndex(t, p)
	for _, theta := range []float64{thetaHigh, thetaLow} {
		var want []retrieval.Entry
		naive.AboveTheta(q, p, theta, retrieval.Collect(&want))
		if got := genAbove(t, ix, q, theta, newL2APGen(q, core.Problem{Theta: theta})); !retrieval.EqualSets(got, want) {
			t.Fatalf("θ=%g: %d entries, oracle %d", theta, len(got), len(want))
		}
	}
}
