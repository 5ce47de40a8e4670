package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"lemp/internal/retrieval"
)

func TestTuningSetsParametersOnAllBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	q := genMatrix(rng, 60, 10, 1.0, 1, false, 0, 0)
	p := genMatrix(rng, 400, 10, 1.0, 1, false, 0, 0)
	opts := testOptions(AlgLI)
	ix, err := NewIndex(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	theta, _ := safeTheta(t, q, p, 100)
	j, err := ix.NewJob(Problem{Theta: theta}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.Run(context.Background(), q, func(retrieval.Entry) {}); err != nil {
		t.Fatal(err)
	}
	if len(j.fit) != len(ix.buckets) {
		t.Fatalf("fit holds %d entries for %d buckets", len(j.fit), len(ix.buckets))
	}
	for bi, f := range j.fit {
		if !f.tuned {
			t.Fatalf("bucket %d not tuned", bi)
		}
		if f.phi < 1 || f.phi > opts.withDefaults().MaxPhi {
			t.Fatalf("bucket %d: φ_b=%d out of range", bi, f.phi)
		}
		if math.IsNaN(f.tb) {
			t.Fatalf("bucket %d: t_b is NaN", bi)
		}
	}
}

func TestNeedsTuning(t *testing.T) {
	cases := []struct {
		opts Options
		want bool
	}{
		{Options{Algorithm: AlgL}, false},
		{Options{Algorithm: AlgLI}, true},
		{Options{Algorithm: AlgLC}, true},
		{Options{Algorithm: AlgLI, Phi: 3}, true}, // t_b still tuned
		{Options{Algorithm: AlgI}, true},
		{Options{Algorithm: AlgI, Phi: 2}, false}, // φ fixed, no t_b
		{Options{Algorithm: AlgC, Phi: 1}, false},
		{Options{Algorithm: AlgTA}, false},
		{Options{Algorithm: AlgTree}, false},
		{Options{Algorithm: AlgL2AP}, false},
		{Options{Algorithm: AlgBLSH}, false},
	}
	rng := rand.New(rand.NewSource(92))
	p := genMatrix(rng, 50, 4, 0.5, 1, false, 0, 0)
	for _, c := range cases {
		ix, err := NewIndex(p, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := ix.needsTuning(ix.opts); got != c.want {
			t.Errorf("needsTuning(%v, φ=%d) = %v, want %v",
				c.opts.Algorithm, c.opts.Phi, got, c.want)
		}
	}
}

func TestFitBucketSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	// r must be ≥ MaxPhi (5) or tunePhis caps the φ search space at r.
	p := genMatrix(rng, 100, 6, 0.5, 1, false, 0, 0)
	ix, _ := NewIndex(p, Options{Algorithm: AlgLI, TuneByCost: true})

	// LENGTH cheap below θ_b = 0.5, coordinate method cheap above: the
	// fitted t_b must land between the two clusters.
	var obs []observation
	for i := 0; i < 10; i++ {
		thetaB := 0.1 + float64(i)*0.08 // 0.1 .. 0.82
		o := observation{thetaB: thetaB, costPhi: make([]float64, 6)}
		if thetaB < 0.5 {
			o.costL = 1
			for phi := 1; phi <= 5; phi++ {
				o.costPhi[phi] = 10
			}
		} else {
			o.costL = 10
			for phi := 1; phi <= 5; phi++ {
				o.costPhi[phi] = 1
			}
		}
		obs = append(obs, o)
	}
	f := ix.fitBucket(ix.opts, obs)
	if !f.tuned {
		t.Fatal("bucket not marked tuned")
	}
	if f.tb < 0.4 || f.tb > 0.6 {
		t.Errorf("t_b=%g, want ≈0.5", f.tb)
	}

	// All observations favor LENGTH: t_b = +Inf.
	for i := range obs {
		obs[i].costL = 1
		for phi := 1; phi <= 5; phi++ {
			obs[i].costPhi[phi] = 5
		}
	}
	f = ix.fitBucket(ix.opts, obs)
	if !math.IsInf(f.tb, 1) {
		t.Errorf("t_b=%g, want +Inf (always LENGTH)", f.tb)
	}

	// All observations favor the coordinate method: t_b = 0.
	for i := range obs {
		obs[i].costL = 5
		for phi := 1; phi <= 5; phi++ {
			obs[i].costPhi[phi] = 1
		}
	}
	f = ix.fitBucket(ix.opts, obs)
	if f.tb != 0 {
		t.Errorf("t_b=%g, want 0 (never LENGTH)", f.tb)
	}

	// φ_b follows the cheapest φ.
	for i := range obs {
		for phi := 1; phi <= 5; phi++ {
			obs[i].costPhi[phi] = float64(10 - phi) // φ=5 cheapest
		}
	}
	f = ix.fitBucket(ix.opts, obs)
	if f.phi != 5 {
		t.Errorf("φ_b=%d, want 5", f.phi)
	}

	// No observations: defaults.
	f = ix.fitBucket(ix.opts, nil)
	if !f.tuned || f.tb != defaultTB {
		t.Errorf("empty-fit: tuned=%v tb=%g", f.tuned, f.tb)
	}
}

func TestSampleIndices(t *testing.T) {
	got := sampleIndices(5, 10)
	if len(got) != 5 {
		t.Errorf("n<want: %v", got)
	}
	got = sampleIndices(100, 10)
	if len(got) != 10 || got[0] != 0 || got[9] != 90 {
		t.Errorf("spread: %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("not strictly increasing: %v", got)
		}
	}
	if got := sampleIndices(0, 4); len(got) != 0 {
		t.Errorf("empty: %v", got)
	}
}

// Tuning by cost and by wall-clock must both produce exact results (only
// the per-bucket choices may differ).
func TestTuningModesAgreeOnResults(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	q := genMatrix(rng, 50, 8, 1.2, 1, false, 0, 0)
	p := genMatrix(rng, 300, 8, 1.2, 1, false, 0, 0)
	theta, _ := safeTheta(t, q, p, 80)

	byCost := testOptions(AlgLI)
	byTime := byCost
	byTime.TuneByCost = false

	ixC, _ := NewIndex(p, byCost)
	ixT, _ := NewIndex(p, byTime)
	gotC, _ := collectAbove(t, ixC, q, theta)
	gotT, _ := collectAbove(t, ixT, q, theta)
	if !retrieval.EqualSets(gotC, gotT) {
		t.Errorf("tuning mode changed results: %d vs %d entries", len(gotC), len(gotT))
	}
}

// Under TuneByCost the costs are counts, so the fit must not depend on how
// many goroutines the sample fanned out over: the observations are merged
// in sample order, and every bucket gets bit-identical (t_b, φ_b).
func TestTuningParallelismFitsIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	q := genMatrix(rng, 90, 10, 0.9, 1, false, 1, 0)
	p := genMatrix(rng, 700, 10, 0.9, 1, false, 0, 0)
	theta, _ := safeTheta(t, q, p, 300)
	for _, alg := range []Algorithm{AlgLI, AlgLC, AlgI} {
		for _, prob := range []Problem{{K: 6}, {Theta: theta}} {
			var want []tunedParam
			for _, par := range []int{1, 2, 4} {
				opts := testOptions(alg)
				opts.SampleQueries = 20
				opts.Parallelism = par
				ix, err := NewIndex(p, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ix.tune(newCall(nil, ix.opts, nil), prepareQueries(q), prob, false)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(ix.scan) {
					t.Fatalf("fit holds %d entries for %d buckets", len(got), len(ix.scan))
				}
				split := false
				for _, f := range got {
					split = split || (f.tb > 0 && !math.IsInf(f.tb, 1) && f.tb != defaultTB)
				}
				if par == 1 {
					want = got
					if alg.needsTB() && !split {
						t.Fatalf("%v %+v: no bucket fitted an interior t_b; fixture too easy", alg, prob)
					}
					continue
				}
				for bi := range want {
					if got[bi] != want[bi] {
						t.Fatalf("%v %+v parallelism %d bucket %d: fit %+v, serial %+v", alg, prob, par, bi, got[bi], want[bi])
					}
				}
			}
		}
	}
}
