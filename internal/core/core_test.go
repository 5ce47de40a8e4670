package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"lemp/internal/matrix"
	"lemp/internal/naive"
	"lemp/internal/retrieval"
)

// ---------------------------------------------------------------------------
// Instance generation: the equivalence tests run every bucket algorithm
// against the Naive oracle on instances that exercise the framework's edge
// cases (length skew, sparsity, zero vectors, duplicates, negative-heavy
// data, tiny dimensions).
// ---------------------------------------------------------------------------

type instance struct {
	name string
	q, p *matrix.Matrix
}

// genMatrix draws n vectors of dimension r: Gaussian directions scaled by
// lognormal lengths with the given sigma; optional sparsity, non-negativity,
// a few zero vectors, and duplicated vectors.
func genMatrix(rng *rand.Rand, n, r int, sigma, sparsity float64, nonneg bool, zeros, dupes int) *matrix.Matrix {
	m := matrix.New(r, n)
	for i := 0; i < n; i++ {
		v := m.Vec(i)
		var norm2 float64
		for f := range v {
			if sparsity < 1 && rng.Float64() >= sparsity {
				continue
			}
			x := rng.NormFloat64()
			if nonneg && x < 0 {
				x = -x
			}
			v[f] = x
			norm2 += x * x
		}
		if norm2 == 0 && r > 0 {
			v[rng.Intn(r)] = 1
			norm2 = 1
		}
		scale := math.Exp(sigma*rng.NormFloat64()) / math.Sqrt(norm2)
		for f := range v {
			v[f] *= scale
		}
	}
	for z := 0; z < zeros && z < n; z++ {
		v := m.Vec(rng.Intn(n))
		for f := range v {
			v[f] = 0
		}
	}
	for d := 0; d < dupes && n >= 2; d++ {
		copy(m.Vec(rng.Intn(n)), m.Vec(rng.Intn(n)))
	}
	return m
}

func testInstances(t *testing.T) []instance {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	return []instance{
		{"dense", genMatrix(rng, 50, 8, 0.4, 1, false, 0, 0), genMatrix(rng, 220, 8, 0.4, 1, false, 0, 0)},
		{"skewed", genMatrix(rng, 40, 16, 1.4, 1, false, 0, 0), genMatrix(rng, 300, 16, 1.4, 1, false, 0, 0)},
		{"sparse-nonneg", genMatrix(rng, 45, 12, 1.0, 0.4, true, 0, 0), genMatrix(rng, 260, 12, 1.6, 0.35, true, 0, 0)},
		{"zeros-and-dupes", genMatrix(rng, 35, 10, 0.8, 1, false, 3, 0), genMatrix(rng, 240, 10, 0.8, 1, false, 5, 40)},
		{"r1", genMatrix(rng, 30, 1, 0.6, 1, false, 1, 0), genMatrix(rng, 150, 1, 0.6, 1, false, 2, 10)},
		{"tiny-probe", genMatrix(rng, 25, 6, 0.5, 1, false, 0, 0), genMatrix(rng, 12, 6, 0.5, 1, false, 0, 0)},
		{"negative-heavy", negate(genMatrix(rng, 30, 9, 0.7, 1, true, 0, 0)), genMatrix(rng, 180, 9, 0.7, 1, true, 0, 0)},
	}
}

func negate(m *matrix.Matrix) *matrix.Matrix {
	d := m.Data()
	for i := range d {
		d[i] = -d[i]
	}
	return m
}

// preparedQueries is prepareQueries for a test's query sample, which obeys
// its rule; it reports a violation with t.Error, so goroutines may call it.
func preparedQueries(t testing.TB, q *matrix.Matrix) *querySet {
	qs, err := prepareQueries(q)
	if err != nil {
		t.Error(err)
	}
	return qs
}

// testOptions returns options that force multiple small buckets and
// deterministic tuning, so the framework logic is fully exercised even on
// small instances.
func testOptions(alg Algorithm) Options {
	return Options{
		Algorithm:     alg,
		CacheBytes:    bucketBytes(16) * 24, // ~24 vectors per bucket
		MinBucketSize: 5,
		SampleQueries: 8,
		TuneByCost:    true,
	}
}

// safeThetaAt picks a threshold between the level-th and (level+1)-th
// largest product values, centered in a gap wide enough that floating-point
// noise cannot move entries across it. It walks outward from the requested
// level until a sufficiently wide positive gap is found, reporting ok=false
// when none exists (e.g. all products negative).
func safeThetaAt(q, p *matrix.Matrix, level int) (theta float64, lvl int, ok bool) {
	var vals []float64
	for i := 0; i < q.N(); i++ {
		for j := 0; j < p.N(); j++ {
			vals = append(vals, q.Product(p, i, j))
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	if len(vals) == 0 {
		return 1, 0, false
	}
	for d := 0; d < len(vals); d++ {
		for _, lvl := range []int{level - d, level + d} {
			if lvl < 1 || lvl >= len(vals) {
				continue
			}
			a, b := vals[lvl-1], vals[lvl]
			if a <= 0 {
				continue // Above-θ requires θ > 0
			}
			if a-b > 1e-7*(1+math.Abs(a)) {
				return (a + b) / 2, lvl, true
			}
		}
	}
	return 0, 0, false
}

// safeTheta is safeThetaAt for instances known to have positive products.
func safeTheta(t *testing.T, q, p *matrix.Matrix, level int) (float64, int) {
	t.Helper()
	theta, lvl, ok := safeThetaAt(q, p, level)
	if !ok {
		t.Fatalf("no safe theta found")
	}
	return theta, lvl
}

// rowTopK and aboveTheta are the one-shot executor under a background
// context and the index's own options: the shape most tests call it in.
func rowTopK(ix *Index, q *matrix.Matrix, k int) (retrieval.TopK, Stats, error) {
	return ix.Retrieve(context.Background(), q, Problem{K: k}, nil, RunOptions{})
}

func aboveTheta(ix *Index, q *matrix.Matrix, theta float64, sink retrieval.Sink) (Stats, error) {
	_, st, err := ix.Retrieve(context.Background(), q, Problem{Theta: theta}, sink, RunOptions{})
	return st, err
}

func collectAbove(t *testing.T, ix *Index, q *matrix.Matrix, theta float64) ([]retrieval.Entry, Stats) {
	t.Helper()
	var out []retrieval.Entry
	st, err := aboveTheta(ix, q, theta, retrieval.Collect(&out))
	if err != nil {
		t.Fatalf("AboveTheta: %v", err)
	}
	return out, st
}

// ---------------------------------------------------------------------------
// Above-θ equivalence
// ---------------------------------------------------------------------------

func TestAboveThetaMatchesNaiveAllAlgorithms(t *testing.T) {
	for _, inst := range testInstances(t) {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			total := inst.q.N() * inst.p.N()
			for _, level := range []int{5, total / 100, total / 10} {
				if level < 1 {
					continue
				}
				theta, lvl, ok := safeThetaAt(inst.q, inst.p, level)
				if !ok {
					continue // no positive products (negative-heavy instance)
				}
				var want []retrieval.Entry
				naive.AboveTheta(inst.q, inst.p, theta, retrieval.Collect(&want))
				if len(want) != lvl {
					t.Fatalf("oracle returned %d entries, want %d", len(want), lvl)
				}
				for _, alg := range Algorithms() {
					ix, err := NewIndex(inst.p, testOptions(alg))
					if err != nil {
						t.Fatalf("NewIndex(%v): %v", alg, err)
					}
					got, st := collectAbove(t, ix, inst.q, theta)
					if retrieval.Sort(got); !slices.Equal(got, want) {
						t.Errorf("alg=%v level=%d: got %v, naive %v (θ=%g)", alg, lvl, got, want, theta)
						continue
					}
					if st.Candidates < int64(len(want)) {
						t.Errorf("alg=%v: candidates %d < results %d", alg, st.Candidates, len(want))
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Row-Top-k equivalence
// ---------------------------------------------------------------------------

func TestRowTopKMatchesNaiveAllAlgorithms(t *testing.T) {
	for _, inst := range testInstances(t) {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			for _, k := range []int{1, 3, 10, inst.p.N() + 5} {
				want, _ := naive.RowTopK(inst.q, inst.p, k)
				for _, alg := range Algorithms() {
					ix, err := NewIndex(inst.p, testOptions(alg))
					if err != nil {
						t.Fatalf("NewIndex(%v): %v", alg, err)
					}
					got, _, err := rowTopK(ix, inst.q, k)
					if err != nil {
						t.Fatalf("RowTopK(%v): %v", alg, err)
					}
					compareTopK(t, fmt.Sprintf("alg=%v k=%d", alg, k), got, want)
				}
			}
		})
	}
}

// compareTopK holds Row-Top-k rows to naive's: the same entries, ids and
// values (±0 alike), ties going to the smaller id.
func compareTopK(t *testing.T, label string, got, want retrieval.TopK) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s row %d: got %v, want %v", label, i, got[i], want[i])
		}
	}
}

// ---------------------------------------------------------------------------
// API edge cases
// ---------------------------------------------------------------------------

func TestEmptyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := genMatrix(rng, 50, 5, 0.5, 1, false, 0, 0)
	empty := matrix.New(5, 0)

	ix, err := NewIndex(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, st := collectAbove(t, ix, empty, 1)
	if len(got) != 0 || st.Queries != 0 {
		t.Errorf("empty query matrix: %d entries, %d queries", len(got), st.Queries)
	}
	top, _, err := rowTopK(ix, empty, 3)
	if err != nil || len(top) != 0 {
		t.Errorf("empty query top-k: %v rows, err %v", len(top), err)
	}

	ixEmpty, err := NewIndex(matrix.New(5, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := genMatrix(rng, 4, 5, 0.5, 1, false, 0, 0)
	got, _ = collectAbove(t, ixEmpty, q, 1)
	if len(got) != 0 {
		t.Errorf("empty probe matrix returned %d entries", len(got))
	}
	top, _, err = rowTopK(ixEmpty, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range top {
		if len(row) != 0 {
			t.Errorf("empty probe: row %d has %d entries", i, len(row))
		}
	}
}

func TestInvalidArguments(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := genMatrix(rng, 40, 5, 0.5, 1, false, 0, 0)
	ix, err := NewIndex(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := genMatrix(rng, 4, 5, 0.5, 1, false, 0, 0)
	if _, err := aboveTheta(ix, q, 0, func(retrieval.Entry) {}); err == nil {
		t.Error("theta=0 accepted")
	}
	if _, err := aboveTheta(ix, q, -1, func(retrieval.Entry) {}); err == nil {
		t.Error("negative theta accepted")
	}
	if _, _, err := rowTopK(ix, q, 0); err == nil {
		t.Error("k=0 accepted")
	}
	bad := genMatrix(rng, 4, 6, 0.5, 1, false, 0, 0)
	if _, err := aboveTheta(ix, bad, 1, func(retrieval.Entry) {}); err == nil {
		t.Error("dimension mismatch accepted in AboveTheta")
	}
	if _, _, err := rowTopK(ix, bad, 1); err == nil {
		t.Error("dimension mismatch accepted in RowTopK")
	}
	if _, err := NewIndex(p, Options{ShrinkFactor: 2}); err == nil {
		t.Error("ShrinkFactor=2 accepted")
	}
	for _, a := range []Algorithm{Algorithm(5), Algorithm(8), Algorithm(99)} {
		if _, err := NewIndex(p, Options{Algorithm: a}); err == nil {
			t.Errorf("unknown algorithm %d accepted", int(a))
		}
	}
	if _, err := ParseAlgorithm("TA"); err == nil || !strings.Contains(err.Error(), "lemp-bench -experiment fig7ab|fig7cf|table5|table6") {
		t.Errorf("ParseAlgorithm(TA) = %v, want the lemp-bench pointer", err)
	}
}

func TestParallelismMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := genMatrix(rng, 90, 10, 0.9, 1, false, 2, 0)
	p := genMatrix(rng, 350, 10, 0.9, 1, false, 2, 20)
	theta, _ := safeTheta(t, q, p, 300)

	serialOpts := testOptions(AlgLI)
	parOpts := serialOpts
	parOpts.Parallelism = 4

	ixS, _ := NewIndex(p, serialOpts)
	ixP, _ := NewIndex(p, parOpts)
	gotS, _ := collectAbove(t, ixS, q, theta)
	gotP, _ := collectAbove(t, ixP, q, theta)
	if !retrieval.EqualSets(gotS, gotP) {
		t.Errorf("parallel Above-θ: %d entries vs serial %d", len(gotP), len(gotS))
	}

	topS, _, _ := rowTopK(ixS, q, 7)
	topP, _, _ := rowTopK(ixP, q, 7)
	compareTopK(t, "parallel", topP, topS)
}

func TestCacheObliviousEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := genMatrix(rng, 60, 10, 0.5, 1, false, 0, 0)
	p := genMatrix(rng, 400, 10, 0.5, 1, false, 0, 0)
	theta, _ := safeTheta(t, q, p, 200)

	aware := testOptions(AlgLI)
	oblivious := aware
	oblivious.CacheBytes = -1 // single unbounded bucketization

	ixA, _ := NewIndex(p, aware)
	ixO, _ := NewIndex(p, oblivious)
	if ixO.NumBuckets() >= ixA.NumBuckets() {
		t.Errorf("cache-oblivious index has %d buckets, cache-aware %d",
			ixO.NumBuckets(), ixA.NumBuckets())
	}
	gotA, _ := collectAbove(t, ixA, q, theta)
	gotO, _ := collectAbove(t, ixO, q, theta)
	if !retrieval.EqualSets(gotA, gotO) {
		t.Errorf("cache-oblivious results differ: %d vs %d", len(gotO), len(gotA))
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := genMatrix(rng, 50, 8, 1.2, 1, false, 0, 0)
	p := genMatrix(rng, 300, 8, 1.2, 1, false, 0, 0)
	theta, lvl := safeTheta(t, q, p, 60)

	ix, _ := NewIndex(p, testOptions(AlgLI))
	got, st := collectAbove(t, ix, q, theta)
	if int(st.Results) != len(got) || len(got) != lvl {
		t.Errorf("Results=%d, emitted=%d, want=%d", st.Results, len(got), lvl)
	}
	if st.Queries != q.N() {
		t.Errorf("Queries=%d, want %d", st.Queries, q.N())
	}
	if st.Candidates < st.Results {
		t.Errorf("Candidates=%d < Results=%d", st.Candidates, st.Results)
	}
	maxPairs := int64(q.N()) * int64(ix.NumBuckets())
	if st.ProcessedPairs+st.PrunedPairs != maxPairs {
		t.Errorf("pairs: processed %d + pruned %d != %d", st.ProcessedPairs, st.PrunedPairs, maxPairs)
	}
	if st.CandidatesPerQuery() <= 0 {
		t.Errorf("CandidatesPerQuery=%g", st.CandidatesPerQuery())
	}
	if st.RetrievalTime <= 0 {
		t.Errorf("RetrievalTime=%v after a retrieval", st.RetrievalTime)
	}
}
