package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lemp/internal/naive"
	"lemp/internal/retrieval"
)

// FuzzAboveThetaEquivalence drives the whole pipeline from a fuzzed seed:
// a random instance is generated from the seed, a threshold is calibrated,
// and every exact algorithm must agree with Naive. `go test` runs the seed
// corpus; `go test -fuzz=FuzzAboveTheta` explores further.
func FuzzAboveThetaEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(50), false)
	f.Add(int64(2), uint8(1), uint8(200), true)
	f.Add(int64(3), uint8(16), uint8(120), false)
	f.Add(int64(99), uint8(3), uint8(31), true)
	f.Fuzz(func(t *testing.T, seed int64, rRaw, nRaw uint8, sparse bool) {
		r := 1 + int(rRaw)%24
		n := 8 + int(nRaw)
		rng := rand.New(rand.NewSource(seed))
		sparsity := 1.0
		if sparse {
			sparsity = 0.4
		}
		q := genMatrix(rng, 12+rng.Intn(20), r, 0.9, sparsity, false, 1, 0)
		p := genMatrix(rng, n, r, 0.9, sparsity, false, 1, 3)
		theta, _, ok := safeThetaAt(q, p, 1+n/4)
		if !ok {
			t.Skip("no positive threshold for this instance")
		}
		var want []retrieval.Entry
		naive.AboveTheta(q, p, theta, retrieval.Collect(&want))
		for _, alg := range Algorithms() {
			ix, err := NewIndex(p, testOptions(alg))
			if err != nil {
				t.Fatalf("NewIndex(%v): %v", alg, err)
			}
			var got []retrieval.Entry
			if _, err := aboveTheta(ix, q, theta, retrieval.Collect(&got)); err != nil {
				t.Fatalf("AboveTheta(%v): %v", alg, err)
			}
			if retrieval.Sort(got); !slices.Equal(got, want) {
				t.Fatalf("alg %v: %v, naive %v (θ=%g, seed=%d r=%d n=%d sparse=%v)", alg, got, want, theta, seed, r, n, sparse)
			}
		}
	})
}

// FuzzRowTopKEquivalence does the same for Row-Top-k, row for row.
func FuzzRowTopKEquivalence(f *testing.F) {
	f.Add(int64(4), uint8(6), uint8(80), uint8(3))
	f.Add(int64(5), uint8(2), uint8(40), uint8(1))
	f.Add(int64(6), uint8(12), uint8(160), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, rRaw, nRaw, kRaw uint8) {
		r := 1 + int(rRaw)%20
		n := 5 + int(nRaw)
		k := 1 + int(kRaw)%12
		rng := rand.New(rand.NewSource(seed))
		q := genMatrix(rng, 10+rng.Intn(15), r, 1.1, 1, false, 1, 0)
		p := genMatrix(rng, n, r, 1.1, 1, false, 1, 2)
		want, _ := naive.RowTopK(q, p, k)
		for _, alg := range Algorithms() {
			ix, err := NewIndex(p, testOptions(alg))
			if err != nil {
				t.Fatalf("NewIndex(%v): %v", alg, err)
			}
			got, _, err := rowTopK(ix, q, k)
			if err != nil {
				t.Fatalf("RowTopK(%v): %v", alg, err)
			}
			compareTopK(t, fmt.Sprintf("alg %v seed %d", alg, seed), got, want)
		}
	})
}

// INCR with φ=1 must never return more candidates than COORD with φ=1
// (Appendix A substitutes COORD in that case), and both must contain every
// true result.
func TestIncrSubsetOfCoordAtPhi1(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for trial := 0; trial < 40; trial++ {
		p := genMatrix(rng, 120, 8, 0.8, 1, false, 0, 0)
		buckets, _ := bucketizeMatrix(p, nil, 0, 1, 0)
		b := buckets[0]
		qdir := randUnit(rng, 8)
		qlen := 0.5 + rng.Float64()*2
		thetaB := 0.3 + rng.Float64()*0.65
		theta := thetaB * qlen * b.lb

		sC := newScratch(b.size(), 8)
		runCoord(b, qdir, thetaB, 0, 1, sC)
		coordSet := map[int32]bool{}
		for _, lid := range sC.lids() {
			coordSet[lid] = true
		}
		sI := newScratch(b.size(), 8)
		runIncr(b, qdir, qlen, theta, thetaB, 0, 1, sI)
		for _, lid := range sI.lids() {
			if !coordSet[lid] {
				t.Fatalf("trial %d: INCR candidate %d missing from COORD's set", trial, lid)
			}
		}
		// Soundness: both sets contain every vector passing the global
		// threshold.
		for lid := 0; lid < b.size(); lid++ {
			v := dot(qdir, b.row(lid)) * qlen
			if v >= theta+1e-9 && !coordSet[int32(lid)] {
				t.Fatalf("trial %d: true result %d (v=%g θ=%g) not in COORD set", trial, lid, v, theta)
			}
		}
	}
}
