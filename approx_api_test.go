package lemp_test

import (
	"context"
	"math/rand"
	"testing"

	"lemp"
	"lemp/internal/vecmath"
)

// The approximate retrieval path through the public facade: clustered
// queries, recall against the exact answer, and options passthrough.
func TestRowTopKApproxPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const (
		groups = 8
		users  = 400
		items  = 600
		r      = 10
		k      = 5
	)
	q := lemp.NewMatrix(r, users)
	centers := lemp.NewMatrix(r, groups)
	for c := 0; c < groups; c++ {
		v := centers.Vec(c)
		for f := range v {
			v[f] = rng.NormFloat64()
		}
		vecmath.Normalize(v, v)
	}
	for i := 0; i < users; i++ {
		v := q.Vec(i)
		center := centers.Vec(rng.Intn(groups))
		for f := range v {
			v[f] = center[f] + 0.05*rng.NormFloat64()
		}
	}
	p := lemp.NewMatrix(r, items)
	for i := 0; i < items; i++ {
		v := p.Vec(i)
		for f := range v {
			v[f] = rng.NormFloat64()
		}
	}

	index, err := lemp.New(p, lemp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := rowTopK(index, q, k)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := index.Retrieve(context.Background(), q, lemp.TopK(k), lemp.Approx(lemp.ApproxOptions{Clusters: groups, Expand: 10, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if rec := lemp.Recall(exact, approx.TopK); rec < 0.9 {
		t.Errorf("recall %.3f through public API, want ≥ 0.9", rec)
	}
	if approx.Stats.Queries != users {
		t.Errorf("stats queries %d", approx.Stats.Queries)
	}
	if rec := lemp.Recall(exact, exact); rec != 1 {
		t.Errorf("self-recall %g", rec)
	}
}

func TestParallelOptionsThroughPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	p := lemp.NewMatrix(6, 300)
	q := lemp.NewMatrix(6, 80)
	for _, m := range []*lemp.Matrix{p, q} {
		d := m.Data()
		for i := range d {
			d[i] = rng.NormFloat64()
		}
	}
	serial, err := lemp.New(p, lemp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := lemp.New(p, lemp.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantTop, _, _ := rowTopK(serial, q, 3)
	gotTop, _, _ := rowTopK(parallel, q, 3)
	for i := range wantTop {
		for j := range wantTop[i] {
			if wantTop[i][j].Value != gotTop[i][j].Value {
				t.Fatalf("row %d rank %d: %g vs %g", i, j, gotTop[i][j].Value, wantTop[i][j].Value)
			}
		}
	}
	want, _, _ := aboveTheta(serial, q, 3)
	got, _, _ := aboveTheta(parallel, q, 3)
	if len(want) != len(got) {
		t.Fatalf("parallel Above-θ %d entries, serial %d", len(got), len(want))
	}
}
