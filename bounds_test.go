package lemp_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lemp"
	"lemp/internal/server"
	"lemp/internal/vecmath"
)

// TestExactThetaEntryKept: 1·7 + 1·7 + 1·7 = 21, so Above-θ at θ = 21 over a
// catalog holding [7,7,7] returns that entry, through Retrieve under L and LI
// and through POST /v1/above. The local threshold θ/(‖q‖·l_b) computes to
// just above 1 here; only the bounds' rounding slack keeps the bucket.
func TestExactThetaEntryKept(t *testing.T) {
	p, _ := lemp.MatrixFromVectors([][]float64{{7, 7, 7}, {1, 0, 2}, {0, 3, 0}})
	q, _ := lemp.MatrixFromVectors([][]float64{{1, 1, 1}})
	want := lemp.Entry{Query: 0, Probe: 0, Value: 21}
	for _, alg := range []lemp.Algorithm{lemp.AlgorithmL, lemp.AlgorithmLI} {
		ix, err := lemp.New(p, lemp.Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ix.Retrieve(context.Background(), q, lemp.AboveTheta(21))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(res.Entries, want) {
			t.Errorf("%v: Above-θ at 21 returned %v, want %v among them", alg, res.Entries, want)
		}
	}
	srv, err := server.New(p, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := postQueries(srv.Handler(), q, 0, 21)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(rows[0], want) {
		t.Errorf("/v1/above at θ 21 returned %v, want %v among them", rows[0], want)
	}
}

// TestAboveThetaAtOwnValue: over a catalog of scaled copies of one direction
// (some nudged off it by 1e-9 to 1e-7 in one coordinate, a few other
// vectors), for r from 1 to 50 and under every algorithm, Above-θ at θ equal
// to an entry's own value returns that entry. Queries parallel to the
// direction meet buckets whose computed local threshold lands on either
// side of 1. From r = 4 on the direction spans three coordinates, INCR's
// three focus coordinates, so a copy's remainder 1−‖p̄_F‖² computes to 0 or
// to a few ulps, and a nudged copy's true remainder is as small.
func TestAboveThetaAtOwnValue(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for r := 1; r <= 50; r++ {
		dir, off := randVec(rng, r), r-1 // off: a coordinate outside the direction
		if r >= 4 {
			dir = make([]float64, r)
			for _, f := range rng.Perm(r - 1)[:3] {
				dir[f] = 1 + rng.Float64()
			}
		}
		rows := make([][]float64, 60)
		for i := range rows {
			rows[i] = scale(math.Exp(2*rng.NormFloat64()), dir)
			switch i % 10 {
			case 9:
				rows[i] = randVec(rng, r)
			case 1, 4, 7:
				rows[i][off] += []float64{1e-9, 1e-8, -1e-8, 1e-7}[rng.Intn(4)] * vecmath.Norm(rows[i])
			}
		}
		lean := scale(1, dir)
		lean[off] += 0.2 * vecmath.Norm(dir) // outside the focus, still in the product
		q, _ := lemp.MatrixFromVectors([][]float64{scale(math.Exp(rng.NormFloat64()), dir), scale(math.Exp(rng.NormFloat64()), lean), randVec(rng, r)})
		p, _ := lemp.MatrixFromVectors(rows)
		ix, err := lemp.New(p, lemp.Options{MinBucketSize: 4, Phi: 3, TuneByCost: true, SampleQueries: 3})
		if err != nil {
			t.Fatal(err)
		}
		all, err := ix.Retrieve(ctx, q, lemp.AboveTheta(math.SmallestNonzeroFloat64))
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range allAlgorithms {
			for try := 0; try < 8 && len(all.Entries) > 0; try++ {
				e := all.Entries[rng.Intn(len(all.Entries))]
				res, err := ix.Retrieve(ctx, q, lemp.AboveTheta(e.Value), lemp.WithAlgorithm(alg))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Contains(res.Entries, e) {
					t.Fatalf("r=%d %v: Above-θ at θ = %v drops the entry %+v", r, alg, e.Value, e)
				}
			}
		}
	}
}
