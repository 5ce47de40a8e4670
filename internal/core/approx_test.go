package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"lemp/internal/matrix"
	"lemp/internal/naive"
	"lemp/internal/retrieval"
	"lemp/internal/vecmath"
)

// clusteredQueries draws query vectors around a few shared directions, the
// regime the query-clustering approximation is designed for.
func clusteredQueries(rng *rand.Rand, n, groups, r int, noise float64) *matrix.Matrix {
	centers := matrix.New(r, groups)
	for c := 0; c < groups; c++ {
		v := centers.Vec(c)
		for f := range v {
			v[f] = rng.NormFloat64()
		}
		vecmath.Normalize(v, v)
	}
	m := matrix.New(r, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(groups)
		v := m.Vec(i)
		for f := range v {
			v[f] = centers.Vec(c)[f] + noise*rng.NormFloat64()
		}
		vecmath.Scale(v, v, 0.5+2*rng.Float64())
	}
	return m
}

func TestRowTopKApproxHighRecallOnClusteredQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	q := clusteredQueries(rng, 300, 6, 12, 0.05)
	p := genMatrix(rng, 500, 12, 0.8, 1, false, 0, 0)
	ix, err := NewIndex(p, testOptions(AlgLI))
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := naive.RowTopK(q, p, 5)
	approx, st, err := ix.RetrieveApprox(context.Background(), q, 5, ApproxOptions{Clusters: 6, Expand: 10, Seed: 2}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec := Recall(exact, approx); rec < 0.95 {
		t.Errorf("recall %.3f on tightly clustered queries, want ≥ 0.95", rec)
	}
	// The point of the approximation: far fewer exact products than m·n.
	if st.Candidates >= int64(q.N())*int64(p.N())/2 {
		t.Errorf("approximation did %d candidate evaluations of %d total", st.Candidates, q.N()*p.N())
	}
}

func TestRowTopKApproxValuesAreExactProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	q := clusteredQueries(rng, 80, 4, 8, 0.2)
	p := genMatrix(rng, 250, 8, 0.8, 1, false, 0, 0)
	ix, _ := NewIndex(p, testOptions(AlgLI))
	approx, _, err := ix.RetrieveApprox(context.Background(), q, 4, ApproxOptions{Clusters: 4, Expand: 6, Seed: 3}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range approx {
		if len(row) == 0 || len(row) > 4 {
			t.Fatalf("row %d has %d entries", i, len(row))
		}
		seen := map[int]bool{}
		prev := math.Inf(1)
		for _, e := range row {
			if seen[e.Probe] {
				t.Fatalf("row %d: duplicate probe %d", i, e.Probe)
			}
			seen[e.Probe] = true
			if e.Value > prev+1e-12 {
				t.Fatalf("row %d not sorted", i)
			}
			prev = e.Value
			want := q.Product(p, i, e.Probe)
			if math.Abs(e.Value-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("row %d probe %d: value %g, product %g", i, e.Probe, e.Value, want)
			}
		}
	}
}

func TestRowTopKApproxMoreClustersImproveRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	// Diffuse queries: a single centroid is a poor proxy, many are better.
	q := genMatrix(rng, 250, 10, 0.3, 1, false, 0, 0)
	p := genMatrix(rng, 400, 10, 0.8, 1, false, 0, 0)
	ix, _ := NewIndex(p, testOptions(AlgLI))
	exact, _ := naive.RowTopK(q, p, 5)
	few, _, err := ix.RetrieveApprox(context.Background(), q, 5, ApproxOptions{Clusters: 1, Expand: 4, Seed: 5}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	many, _, err := ix.RetrieveApprox(context.Background(), q, 5, ApproxOptions{Clusters: 64, Expand: 4, Seed: 5}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recFew, recMany := Recall(exact, few), Recall(exact, many)
	if recMany < recFew {
		t.Errorf("recall did not improve with clusters: 1→%.3f, 64→%.3f", recFew, recMany)
	}
	if recMany < 0.5 {
		t.Errorf("recall %.3f with 64 clusters is implausibly low", recMany)
	}
}

// The centroid phase's work is the approximate call's work: on a quantized
// index its candidates go through the int8 screen, and the call's stats must
// say so. Survivors keep their approximate dot there, so what was verified
// exactly or screened away can never exceed the candidates.
func TestRowTopKApproxReportsCentroidPhaseWork(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	q := clusteredQueries(rng, 200, 8, 16, 0.1)
	p := genMatrix(rng, 2000, 16, 0.8, 1, false, 0, 0)
	opts := testOptions(AlgLI)
	opts.Quantize = true
	ix, err := NewIndex(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := ix.RetrieveApprox(context.Background(), q, 10, ApproxOptions{}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.QuantScreened+st.QuantSurvived == 0 {
		t.Errorf("approximate call on a quantized index reports no screened candidate: %+v", st)
	}
	if st.BlockVerified+st.ScalarVerified+st.QuantScreened > st.Candidates {
		t.Errorf("verified %d+%d and screened %d of only %d candidates", st.BlockVerified, st.ScalarVerified, st.QuantScreened, st.Candidates)
	}
	if st.Queries != q.N() || st.Results != int64(10*q.N()) {
		t.Errorf("Queries = %d, Results = %d: the centroid job's own answer leaked into the call's", st.Queries, st.Results)
	}
}

func TestRowTopKApproxEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	p := genMatrix(rng, 60, 6, 0.5, 1, false, 0, 0)
	ix, _ := NewIndex(p, testOptions(AlgLI))
	q := genMatrix(rng, 10, 6, 0.5, 1, false, 0, 0)

	// k larger than n.
	approx, _, err := ix.RetrieveApprox(context.Background(), q, 100, ApproxOptions{Clusters: 2, Expand: 2}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range approx {
		if len(row) > 60 {
			t.Fatalf("row %d has %d entries with n=60", i, len(row))
		}
	}
	// Invalid arguments.
	if _, _, err := ix.RetrieveApprox(context.Background(), q, 0, ApproxOptions{}, RunOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
	bad := genMatrix(rng, 5, 7, 0.5, 1, false, 0, 0)
	if _, _, err := ix.RetrieveApprox(context.Background(), bad, 3, ApproxOptions{}, RunOptions{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	// Empty query matrix.
	empty := matrix.New(6, 0)
	out, _, err := ix.RetrieveApprox(context.Background(), empty, 3, ApproxOptions{}, RunOptions{})
	if err != nil || len(out) != 0 {
		t.Errorf("empty queries: %d rows, err %v", len(out), err)
	}
}

func TestRecallMetric(t *testing.T) {
	exact := retrieval.TopK{
		{{Probe: 1}, {Probe: 2}},
		{{Probe: 3}, {Probe: 4}},
	}
	approx := retrieval.TopK{
		{{Probe: 1}, {Probe: 9}},
		{{Probe: 3}, {Probe: 4}},
	}
	if rec := Recall(exact, approx); math.Abs(rec-0.75) > 1e-12 {
		t.Errorf("recall %g, want 0.75", rec)
	}
	if rec := Recall(nil, nil); rec != 1 {
		t.Errorf("empty recall %g", rec)
	}
	if rec := Recall(retrieval.TopK{{}}, retrieval.TopK{{}}); rec != 1 {
		t.Errorf("all-empty-rows recall %g", rec)
	}
}

func TestProbeVecReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	p := genMatrix(rng, 120, 7, 1.0, 1, false, 2, 5)
	ix, _ := NewIndex(p, testOptions(AlgLI))
	got := make([]float64, ix.r)
	for id := 0; id < p.N(); id++ {
		_, bi, lid, ok := ix.find(int32(id))
		if !ok {
			t.Fatalf("probe %d missing from location lookup", id)
		}
		b := ix.scan[bi]
		vecmath.Scale(got, b.dir(lid), b.lens[lid])
		want := p.Vec(id)
		for f := range want {
			if math.Abs(got[f]-want[f]) > 1e-9 {
				t.Fatalf("probe %d coordinate %d: %g vs %g", id, f, got[f], want[f])
			}
		}
	}
}
