package lemp_test

import (
	"context"
	"fmt"
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
// and through POST /v1/above, with and without Options.Quantize. The local
// threshold θ/(‖q‖·l_b) computes to just above 1 here; only the bounds'
// rounding slack keeps the bucket, and the int8 screen must keep an entry
// whose value equals its cut.
func TestExactThetaEntryKept(t *testing.T) {
	p, _ := lemp.MatrixFromVectors([][]float64{{7, 7, 7}, {1, 0, 2}, {0, 3, 0}})
	q, _ := lemp.MatrixFromVectors([][]float64{{1, 1, 1}})
	want := lemp.Entry{Query: 0, Probe: 0, Value: 21}
	for _, quantize := range []bool{false, true} {
		for _, alg := range []lemp.Algorithm{lemp.AlgorithmL, lemp.AlgorithmLI} {
			ix, err := lemp.New(p, lemp.Options{Algorithm: alg, Quantize: quantize})
			if err != nil {
				t.Fatal(err)
			}
			res, err := ix.Retrieve(context.Background(), q, lemp.AboveTheta(21))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(res.Entries, want) {
				t.Errorf("%v quantize=%v: Above-θ at 21 returned %v, want %v among them", alg, quantize, res.Entries, want)
			}
		}
		srv, err := server.New(p, server.Config{Options: lemp.Options{Quantize: quantize}})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := postQueries(srv.Handler(), q, 0, 21)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(rows[0], want) {
			t.Errorf("quantize=%v: /v1/above at θ 21 returned %v, want %v among them", quantize, rows[0], want)
		}
	}
}

// TestAboveThetaAtOwnValue: over a catalog of scaled copies of one direction
// (some nudged off it by 1e-9 to 1e-7 in one coordinate, a few other
// vectors) and adversarial rows, for r from 1 to 50, under every algorithm,
// with and without Options.Quantize, Above-θ at θ equal to an entry's own
// value returns that entry. Queries parallel to the direction meet buckets
// whose computed local threshold lands on either side of 1. From r = 4 on
// the direction spans three coordinates, INCR's three focus coordinates, so
// a copy's remainder 1−‖p̄_F‖² computes to 0 or to a few ulps, and a nudged
// copy's true remainder is as small. The adversarial rows:
//
//   - copies with denormal coordinates and ±0 planted beside normal ones (a
//     row whose every coordinate is denormal has length 0 and lies outside
//     the bounds' analysis, boundSlack);
//   - copies 1e-163 to 1e-250 as long, whose squared coordinates all
//     underflow, so only vecmath.Norm's scaled sum gives them a length (a
//     plain sum gives 0, and such a row was pruned with the zero bucket);
//   - near-cancelling pairs: rows whose products with the first query cancel
//     to a value far below ‖q‖·‖p‖, where the int8 screen's error bound
//     dwarfs the value;
//   - three rows a thousandth as long as the rest, fewer than
//     MinBucketSize, which the last bucket absorbs (l_b/len ≫ 1);
//   - four exact duplicates, and Row-Top-k at a k that cuts through them,
//     where ties go to the smaller id.
//
// Besides the exact-θ retrievals, every index is held to naive through the
// differential harness's check at that k.
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
		for _, tiny := range []float64{5e-324, -5e-324, 3 * 0x1p-1074, math.Copysign(0, -1)} {
			if r == 1 {
				break // a row of one denormal has length 0 (see boundSlack)
			}
			row := scale(math.Exp(rng.NormFloat64()), dir)
			row[off] = tiny
			if r > 2 {
				row[rng.Intn(r-1)] = -tiny // a normal coordinate remains
			}
			rows = append(rows, row)
		}
		for _, c := range []float64{1e-163, 1e-170, 1e-250} {
			rows = append(rows, scale(c*math.Exp(rng.NormFloat64()), dir)) // every square underflows
		}
		if r >= 2 {
			a, b := slices.IndexFunc(dir, func(x float64) bool { return x != 0 }), r-1
			for b > a && dir[b] == 0 {
				b--
			}
			for _, eps := range []float64{0, 1e-9, 1e-13} {
				big := 10 * math.Exp(rng.NormFloat64())
				row := make([]float64, r)
				row[a], row[b] = big*dir[b], -big*dir[a] // cancels against the direction
				if a == b {
					row[a] = 0
				}
				row[off] += eps * big
				for f := range row {
					row[f] += eps * big * dir[f]
				}
				rows = append(rows, row)
			}
		}
		for k := 1; k <= 3; k++ {
			rows = append(rows, scale(1e-3*float64(k)*math.Exp(-6), dir))
		}
		dup := scale(math.Exp(rng.NormFloat64()), dir)
		for k := 0; k < 4; k++ {
			rows = slices.Insert(rows, rng.Intn(len(rows)), dup)
		}
		lean := scale(1, dir)
		lean[off] += 0.2 * vecmath.Norm(dir) // outside the focus, still in the product
		q, _ := lemp.MatrixFromVectors([][]float64{scale(math.Exp(rng.NormFloat64()), dir), scale(math.Exp(rng.NormFloat64()), lean), randVec(rng, r)})
		p, _ := lemp.MatrixFromVectors(rows)
		ref := newReference(p, nil)
		top := ref.answer(q, len(rows), 0)[0]
		k := slices.IndexFunc(top, func(e lemp.Entry) bool { return slices.Equal(p.Vec(e.Probe), dup) }) + 2
		for _, quantize := range []bool{false, true} {
			ix, err := lemp.New(p, lemp.Options{MinBucketSize: 4, Phi: 3, TuneByCost: true, SampleQueries: 3, Quantize: quantize})
			if err != nil {
				t.Fatal(err)
			}
			all, err := ix.Retrieve(ctx, q, lemp.AboveTheta(math.SmallestNonzeroFloat64))
			if err != nil {
				t.Fatal(err)
			}
			var eps []entryPoint
			for _, alg := range allAlgorithms {
				for try := 0; try < 8 && len(all.Entries) > 0; try++ {
					e := all.Entries[rng.Intn(len(all.Entries))]
					res, err := ix.Retrieve(ctx, q, lemp.AboveTheta(e.Value), lemp.WithAlgorithm(alg))
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Contains(res.Entries, e) {
						t.Fatalf("r=%d %v quantize=%v: Above-θ at θ = %v drops the entry %+v", r, alg, quantize, e.Value, e)
					}
				}
				eps = append(eps, retrieveEP(alg.String(), ix, false, lemp.WithAlgorithm(alg)))
			}
			check(t, fmt.Sprintf("r=%d quantize=%v", r, quantize), ref, q, k, rng, eps...)
		}
	}
}
