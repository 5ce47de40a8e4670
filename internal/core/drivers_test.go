package core

import (
	"math"
	"math/rand"
	"testing"

	"lemp/internal/matrix"
	"lemp/internal/naive"
	"lemp/internal/retrieval"
	"lemp/internal/vecmath"
)

// With strong length skew and a high threshold, the bucket-level pruning of
// Algorithm 1 (line 13) must skip most (query, bucket) pairs — the headline
// mechanism of the paper.
func TestBucketPruningEffective(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	q := genMatrix(rng, 80, 8, 1.5, 1, false, 0, 0)
	p := genMatrix(rng, 800, 8, 1.5, 1, false, 0, 0)
	theta, _ := safeTheta(t, q, p, 30)
	ix, _ := NewIndex(p, testOptions(AlgLI))
	_, st := collectAbove(t, ix, q, theta)
	total := st.ProcessedPairs + st.PrunedPairs
	if total != int64(q.N())*int64(ix.NumBuckets()) {
		t.Fatalf("pair accounting off: %d of %d", total, q.N()*ix.NumBuckets())
	}
	if frac := float64(st.PrunedPairs) / float64(total); frac < 0.5 {
		t.Errorf("only %.0f%% of pairs pruned on a high-skew instance", frac*100)
	}
	// Lazy indexing: pruned buckets must not have been indexed.
	indexed := 0
	for _, b := range ix.Buckets() {
		if b.Indexed {
			indexed++
		}
	}
	if indexed >= ix.NumBuckets() {
		t.Errorf("all %d buckets indexed despite pruning", indexed)
	}
}

// A query longer than everything must process buckets; one shorter than
// useful must be pruned everywhere. This exercises the sorted-query early
// exits in the Above-θ worker.
func TestQueryOrderEarlyExit(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	p := genMatrix(rng, 200, 6, 0.5, 1, false, 0, 0)
	// One giant query, one tiny one.
	q := matrix.New(6, 2)
	for f := 0; f < 6; f++ {
		q.Vec(0)[f] = 100
		q.Vec(1)[f] = 1e-9
	}
	ix, _ := NewIndex(p, testOptions(AlgLI))
	var got []retrieval.Entry
	st, err := aboveTheta(ix, q, 5, retrieval.Collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range got {
		if e.Query != 0 {
			t.Fatalf("tiny query produced entry %+v", e)
		}
		if want := q.Product(p, e.Query, e.Probe); math.Abs(want-e.Value) > 1e-6 {
			t.Fatalf("value mismatch: %g vs %g", e.Value, want)
		}
	}
	// The tiny query must have been pruned against every bucket.
	if st.PrunedPairs < int64(ix.NumBuckets()) {
		t.Errorf("pruned pairs %d < buckets %d", st.PrunedPairs, ix.NumBuckets())
	}
}

// Row-Top-k with all-negative products: the running threshold stays
// negative and no bucket may be pruned, yet results must match Naive.
func TestRowTopKAllNegativeProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	q := negate(genMatrix(rng, 25, 7, 0.8, 1, true, 0, 0))
	p := genMatrix(rng, 150, 7, 0.8, 1, true, 0, 0)
	want, _ := naive.RowTopK(q, p, 4)
	for _, alg := range Algorithms() {
		ix, _ := NewIndex(p, testOptions(alg))
		got, st, err := rowTopK(ix, q, 4)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		compareTopK(t, "neg-"+alg.String(), q, p, got, want)
		if st.PrunedPairs != 0 {
			t.Errorf("%v pruned %d pairs despite negative thresholds", alg, st.PrunedPairs)
		}
	}
}

// Repeated retrieval calls on one Index must agree (lazy structures are
// built once; CP arrays carry garbage between queries by design).
func TestIndexReuseAcrossCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	q := genMatrix(rng, 50, 8, 1.0, 1, false, 0, 0)
	p := genMatrix(rng, 350, 8, 1.0, 1, false, 0, 0)
	theta, _ := safeTheta(t, q, p, 120)
	ix, _ := NewIndex(p, testOptions(AlgLI))
	first, _ := collectAbove(t, ix, q, theta)
	for trial := 0; trial < 3; trial++ {
		again, _ := collectAbove(t, ix, q, theta)
		if !retrieval.EqualSets(first, again) {
			t.Fatalf("call %d returned %d entries, first returned %d", trial, len(again), len(first))
		}
	}
	// Interleave a Row-Top-k call and re-check.
	if _, _, err := rowTopK(ix, q, 3); err != nil {
		t.Fatal(err)
	}
	again, _ := collectAbove(t, ix, q, theta)
	if !retrieval.EqualSets(first, again) {
		t.Fatal("Above-θ results changed after a Row-Top-k call")
	}
}

// Verification values must equal ‖q‖·‖p‖·cos(q,p) no matter which bucket
// algorithm produced the candidates.
func TestVerificationValueDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	q := genMatrix(rng, 30, 6, 0.7, 1, false, 0, 0)
	p := genMatrix(rng, 200, 6, 0.7, 1, false, 0, 0)
	theta, _ := safeTheta(t, q, p, 50)
	ix, _ := NewIndex(p, testOptions(AlgLI))
	got, _ := collectAbove(t, ix, q, theta)
	for _, e := range got {
		qv, pv := q.Vec(e.Query), p.Vec(e.Probe)
		want := vecmath.Norm(qv) * vecmath.Norm(pv) * vecmath.Cos(qv, pv)
		if math.Abs(e.Value-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("entry (%d,%d): %g vs decomposition %g", e.Query, e.Probe, e.Value, want)
		}
	}
}
