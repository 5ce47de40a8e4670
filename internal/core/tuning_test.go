package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"lemp/internal/matrix"
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
	if len(j.fit) != len(ix.scan) {
		t.Fatalf("fit holds %d entries for %d buckets", len(j.fit), len(ix.scan))
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
		{Options{Algorithm: AlgC}, true},
		{Options{Algorithm: AlgLC, Phi: 2}, true}, // t_b still tuned
	}
	rng := rand.New(rand.NewSource(92))
	p := genMatrix(rng, 50, 4, 0.5, 1, false, 0, 0)
	for _, c := range cases {
		ix, err := NewIndex(p, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := ix.needsTuning(); got != c.want {
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
	f := ix.fitBucket(ix.tunePhis(), obs)
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
	f = ix.fitBucket(ix.tunePhis(), obs)
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
	f = ix.fitBucket(ix.tunePhis(), obs)
	if f.tb != 0 {
		t.Errorf("t_b=%g, want 0 (never LENGTH)", f.tb)
	}

	// φ_b follows the cheapest φ.
	for i := range obs {
		for phi := 1; phi <= 5; phi++ {
			obs[i].costPhi[phi] = float64(10 - phi) // φ=5 cheapest
		}
	}
	f = ix.fitBucket(ix.tunePhis(), obs)
	if f.phi != 5 {
		t.Errorf("φ_b=%d, want 5", f.phi)
	}

	// No observations: defaults.
	f = ix.fitBucket(ix.tunePhis(), nil)
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
// many goroutines either phase of the pass fanned out over — the sample's
// trajectories, then each bucket's pairs: a bucket's observations are kept
// in sample order, and every bucket gets bit-identical (t_b, φ_b).
func TestTuningParallelismFitsIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	q := genMatrix(rng, 90, 10, 0.9, 1, false, 1, 0)
	p := genMatrix(rng, 700, 10, 0.9, 1, false, 0, 0)
	theta, _ := safeTheta(t, q, p, 300)
	for _, alg := range []Algorithm{AlgLI, AlgLC, AlgI} {
		for _, prob := range []Problem{{K: 6}, {Theta: theta}} {
			var want []tunedParam
			for _, par := range []int{1, 2, 5} {
				opts := testOptions(alg)
				opts.SampleQueries = 20
				opts.Parallelism = par
				ix, err := NewIndex(p, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ix.tune(newCall(nil, ix.opts.Parallelism, nil), preparedQueries(t, q), prob)
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

// listProbes counts the probes of the buckets that carry sorted lists, and
// reports which those are.
func listProbes(ix *Index) (probes int, built []bool) {
	built = make([]bool, len(ix.scan))
	for bi, b := range ix.scan {
		if b.lists.Load() != nil {
			built[bi] = true
			probes += b.size()
		}
	}
	return probes, built
}

// TestTuneSweepSkipsLists holds the tuner to building sorted lists only where
// a coordinate method can still win, on a catalog shaped like the benchmark's
// flat one (Gaussian directions, length CoV ≈ 0.4, r = 50) under counted
// costs, so every number here repeats exactly. The buckets are fitted deepest
// first; once LENGTH has swept tunePatience of them in a row, the shallower
// ones are fitted t_b = +Inf unobserved. Against the exhaustive pass
// (sweepOff), which observes every bucket the sample reaches: (a) after a
// whole first call no bucket carries lists that the tuner did not observe —
// the scan builds none behind a swept fit; (b) a swept bucket has no lists
// and t_b = +Inf; (c) the exhaustive pass fits +Inf there too, and fits
// every observed bucket identically — the sweep loses nothing; (d) the lists
// built cover at most half of the probes the sample reaches.
//
// (a)–(c) are the sweep's safety and hold on both query shapes. (d) is its
// yield, and counted costs show it only in part. They know no int8 screen,
// which is what makes LENGTH cheap up to θ_b ≈ 0.95 on the wall clock, so with
// the benchmark's Gaussian queries coordinate methods win far up the scan and
// little is swept: (d) is NOT met there, the counts are pinned and the yield
// on that shape is shown by the wall-clock runs alone. The "flat" queries stand
// in for the screen: unit vectors without a dominant coordinate (|q̄_f| = 1/√r),
// whose feasible regions stay wide, so that a coordinate method first wins deep
// in the scan. There (d) holds for k = 10 and Above-θ and is NOT met for k = 1:
// the thirty running thresholds of a top-1 sample spread over ±15 %, a bucket
// is swept only where the largest of them is below the frontier, and that
// leaves one reached probe in six — pinned, not bounded.
func TestTuneSweepSkipsLists(t *testing.T) {
	const r = 50
	rng := rand.New(rand.NewSource(2301))
	p := genMatrix(rng, 24000, r, 0.39, 1, false, 0, 0)
	gauss := genMatrix(rng, 32, r, 0, 1, false, 0, 0)
	flat := gauss.Clone()
	for i := 0; i < flat.N(); i++ {
		for f, v := range flat.Vec(i) {
			flat.Vec(i)[f] = math.Copysign(1/math.Sqrt(r), v)
		}
	}
	theta, _ := safeTheta(t, flat, p, 10*flat.N()) // equal-length queries: every bucket's θ_b tie
	gtheta, _ := safeTheta(t, gauss, p, 10*gauss.N())
	for _, tc := range []struct {
		name                  string
		q                     *matrix.Matrix
		prob                  Problem
		reached, built, swept int // probes under reached buckets and under built lists; buckets swept
		half                  bool
	}{
		{"flat", flat, Problem{K: 1}, 14941, 12544, 11, false},
		{"flat", flat, Problem{K: 10}, 19037, 7168, 48, true},
		{"flat", flat, Problem{Theta: theta}, 17019, 3584, 55, true},
		{"gauss", gauss, Problem{K: 1}, 13661, 13056, 4, false},
		{"gauss", gauss, Problem{K: 10}, 19293, 12544, 28, false},
		{"gauss", gauss, Problem{Theta: gtheta}, 17275, 10240, 30, false},
	} {
		q := tc.q
		build := func(sweepOff bool) (*Index, []tunedParam) {
			ix, err := NewIndex(p, Options{Algorithm: AlgLI, TuneByCost: true, CacheBytes: bucketBytes(r) * 256})
			if err != nil {
				t.Fatal(err)
			}
			ix.sweepOff = sweepOff
			fit, err := ix.tune(newCall(nil, ix.opts.Parallelism, nil), preparedQueries(t, q), tc.prob)
			if err != nil {
				t.Fatal(err)
			}
			return ix, fit
		}
		ix, fit := build(false)
		all, want := build(true)
		builtProbes, observed := listProbes(ix)
		reachedProbes, reached := listProbes(all)
		swept := 0
		for bi := range fit {
			switch {
			case observed[bi] && !reached[bi]:
				t.Fatalf("%s %+v bucket %d: observed, yet the exhaustive pass did not reach it", tc.name, tc.prob, bi)
			case observed[bi] && fit[bi] != want[bi]: // (c)
				t.Fatalf("%s %+v bucket %d: fitted %+v, the exhaustive pass %+v", tc.name, tc.prob, bi, fit[bi], want[bi])
			case reached[bi] && !observed[bi]: // (b), (c)
				swept++
				if !fit[bi].tuned || !math.IsInf(fit[bi].tb, 1) || !math.IsInf(want[bi].tb, 1) {
					t.Fatalf("%s %+v bucket %d: swept to %+v, the exhaustive pass fits %+v", tc.name, tc.prob, bi, fit[bi], want[bi])
				}
			}
		}
		// (a): the call fits again (no cache), identically, and then scans.
		var err error
		if tc.prob.K > 0 {
			_, _, err = rowTopK(ix, q, tc.prob.K)
		} else {
			_, err = aboveTheta(ix, q, tc.prob.Theta, func(retrieval.Entry) {})
		}
		if err != nil {
			t.Fatal(err)
		}
		_, after := listProbes(ix)
		for bi := range after {
			if after[bi] && !observed[bi] {
				t.Fatalf("%s %+v bucket %d: lists built by the scan behind the tuner's back (fit %+v)", tc.name, tc.prob, bi, fit[bi])
			}
		}
		if tc.half && 2*builtProbes > reachedProbes { // (d)
			t.Errorf("%s %+v: lists built under %d probes, more than half of the %d the sample reaches", tc.name, tc.prob, builtProbes, reachedProbes)
		}
		if reachedProbes != tc.reached || builtProbes != tc.built || swept != tc.swept {
			t.Errorf("%s %+v: the sample reaches %d probes, lists are built under %d, %d buckets are swept; pinned %d, %d, %d",
				tc.name, tc.prob, reachedProbes, builtProbes, swept, tc.reached, tc.built, tc.swept)
		}
	}
}
