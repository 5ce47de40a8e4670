package core

import (
	"math/rand"
	"testing"

	"lemp/internal/data"
	"lemp/internal/naive"
	"lemp/internal/retrieval"
)

// A profile-scale stress run (r = 50, realistic length skew) comparing
// LEMP-LI against Naive on both problems. Guarded by -short because it
// computes a full product for the oracle.
func TestStressProfileScale(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(201))
	q := data.GenerateVectors(rng, 400, 50, 1.5, 1, false)
	p := data.GenerateVectors(rng, 3000, 50, 4.4, 1, false)

	theta, lvl, ok := safeThetaAt(q, p, 2000)
	if !ok {
		t.Fatal("no usable threshold")
	}
	var want []retrieval.Entry
	naive.AboveTheta(q, p, theta, retrieval.Collect(&want))
	if len(want) != lvl {
		t.Fatalf("oracle %d entries, want %d", len(want), lvl)
	}
	ix, err := NewIndex(p, Options{}) // production defaults, wall-clock tuning
	if err != nil {
		t.Fatal(err)
	}
	got, st := collectAbove(t, ix, q, theta)
	if !retrieval.EqualSets(got, want) {
		t.Fatalf("Above-θ: %d entries, want %d", len(got), len(want))
	}
	// The pruning must be doing real work at this scale: candidates per
	// query far below n.
	if st.CandidatesPerQuery() > float64(p.N())/4 {
		t.Errorf("candidates/query %.0f of %d: pruning ineffective", st.CandidatesPerQuery(), p.N())
	}

	wantTop, _ := naive.RowTopK(q, p, 10)
	gotTop, topSt, err := rowTopK(ix, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	compareTopK(t, "stress", gotTop, wantTop)
	if topSt.CandidatesPerQuery() > float64(p.N())/2 {
		t.Errorf("top-k candidates/query %.0f of %d", topSt.CandidatesPerQuery(), p.N())
	}
}

// The same stress instance through every pure bucket algorithm, Above-θ
// only (the per-algorithm Row-Top-k equivalence is covered at smaller
// scale).
func TestStressAllAlgorithmsAboveTheta(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(202))
	q := data.GenerateVectors(rng, 150, 50, 1.5, 0.36, true)
	p := data.GenerateVectors(rng, 2000, 50, 5.5, 0.36, true)
	theta, _, ok := safeThetaAt(q, p, 500)
	if !ok {
		t.Fatal("no usable threshold")
	}
	var want []retrieval.Entry
	naive.AboveTheta(q, p, theta, retrieval.Collect(&want))
	for _, alg := range Algorithms() {
		ix, err := NewIndex(p, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := collectAbove(t, ix, q, theta)
		if !retrieval.EqualSets(got, want) {
			t.Errorf("alg %v: %d entries, want %d", alg, len(got), len(want))
		}
	}
}

func TestBucketsIntrospection(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	q := genMatrix(rng, 40, 8, 1.0, 1, false, 0, 0)
	p := genMatrix(rng, 300, 8, 1.0, 1, false, 0, 0)
	ix, _ := NewIndex(p, testOptions(AlgLI))
	infos := ix.Buckets()
	if len(infos) != ix.NumBuckets() {
		t.Fatalf("%d infos, %d buckets", len(infos), ix.NumBuckets())
	}
	total := 0
	for i, bi := range infos {
		total += bi.Size
		if bi.MinLength > bi.MaxLength {
			t.Errorf("bucket %d: min %g > max %g", i, bi.MinLength, bi.MaxLength)
		}
		if i > 0 && bi.MaxLength > infos[i-1].MinLength+1e-12 {
			t.Errorf("bucket %d overlaps previous", i)
		}
		if bi.Tuned {
			t.Errorf("bucket %d tuned before any retrieval", i)
		}
	}
	if total != p.N() {
		t.Errorf("bucket sizes sum to %d, want %d", total, p.N())
	}
	// A retrieval fits and owns its own parameters; the index reports only
	// the fit a Pretune froze.
	theta, _ := safeTheta(t, q, p, 50)
	collectAbove(t, ix, q, theta)
	for i, bi := range ix.Buckets() {
		if bi.Tuned {
			t.Errorf("bucket %d reported tuned after a retrieval on an index that is not pretuned", i)
		}
	}
	if err := ix.Pretune(q, Problem{Theta: theta}); err != nil {
		t.Fatal(err)
	}
	tuned := 0
	for _, bi := range ix.Buckets() {
		if bi.Tuned {
			tuned++
			if bi.Phi < 1 {
				t.Errorf("tuned bucket has φ=%d", bi.Phi)
			}
		}
	}
	if tuned != len(infos) {
		t.Errorf("%d of %d buckets tuned after Pretune", tuned, len(infos))
	}
}
