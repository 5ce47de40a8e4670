package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lemp/internal/matrix"
	"lemp/internal/retrieval"
	"lemp/internal/vecmath"
)

// forEachTier runs f under every kernel tier this host runs, the host's own
// last (vecmath.LimitTier): on a VNNI host the AVX2 and portable paths run
// through the same entry points too. An index must be built inside f, under
// the tier that queries it.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	for tier := vecmath.TierPortable; tier <= vecmath.HostTier(); tier++ {
		restore := vecmath.LimitTier(tier)
		t.Run(fmt.Sprintf("tier=%s", vecmath.Kernels()), f)
		restore()
	}
}

// TestTopKTilesMatchPerRowLoopEveryTier runs TestTopKTilesMatchPerRowLoop
// under every kernel tier below the host's, which the plain test runs.
func TestTopKTilesMatchPerRowLoopEveryTier(t *testing.T) {
	for tier := vecmath.TierPortable; tier < vecmath.HostTier(); tier++ {
		restore := vecmath.LimitTier(tier)
		t.Run(fmt.Sprintf("tier=%s", vecmath.Kernels()), TestTopKTilesMatchPerRowLoop)
		restore()
	}
}

// blockFixture is an index at r = 50, wide enough for the int8 assembly
// (and, on a VNNI host, the block kernel), built under alg with or without
// Options.Quantize, its fit frozen where alg tunes, and, with mutate,
// carrying tombstones. It returns the queries and a θ that keeps about 30
// entries of a query.
func blockFixture(t *testing.T, alg Algorithm, quantize, mutate bool) (*Index, *matrix.Matrix, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(531))
	const r = 50
	p := genMatrix(rng, 1500, r, 0.6, 1, false, 2, 4)
	q := genMatrix(rng, 100, r, 0.6, 1, false, 2, 0)
	ix, err := NewIndex(p, Options{Algorithm: alg, Quantize: quantize, CacheBytes: 64 * 1024, TuneByCost: true})
	if err != nil {
		t.Fatal(err)
	}
	if alg != AlgL { // freeze the fit, so every call resolves the same methods
		if err := ix.Pretune(q.Slice(10, 40), Problem{K: 10}); err != nil {
			t.Fatal(err)
		}
	}
	if mutate {
		var ups []ProbeUpdate
		for id := int32(0); id < 1500; id += 7 {
			ups = append(ups, ProbeUpdate{Op: OpRemove, ID: id})
		}
		if _, err := ix.Apply(ups); err != nil {
			t.Fatal(err)
		}
	}
	// θ keeps about the 30 largest products of a query.
	vals := make([]float64, p.N())
	for i := range vals {
		vals[i] = vecmath.Dot(q.Vec(7), p.Vec(i))
	}
	sort.Float64s(vals)
	return ix, q, vals[len(vals)-30]
}

// TestBlockedScreensMatchOneRowCalls: on indexes at r = 50 whose LENGTH
// pairs the scan kernels screen in blocks, answering many queries per call —
// panels of 3 rows, all 100 in one call, and a four-worker call — must give every
// query the entries and value bits of a one-row call and the summed
// counters of the one-row calls (Candidates, QuantScreened, QuantSurvived
// and the verification split among them), with eager and with lazy
// sidecars, with and without tombstones, under every kernel tier the host
// runs.
func TestBlockedScreensMatchOneRowCalls(t *testing.T) {
	ctx := context.Background()
	forEachTier(t, func(t *testing.T) {
		for _, alg := range []Algorithm{AlgL, AlgLI} {
			for _, quantize := range []bool{false, true} {
				for _, mutate := range []bool{false, true} {
					ix, q, theta := blockFixture(t, alg, quantize, mutate)
					for _, prob := range []Problem{{K: 10}, {Theta: theta}} {
						name := fmt.Sprintf("%v quant=%v mutated=%v %+v", alg, quantize, mutate, prob)
						run := func(ro RunOptions) func(*matrix.Matrix, retrieval.Sink) (retrieval.TopK, Stats, error) {
							return func(q *matrix.Matrix, sink retrieval.Sink) (retrieval.TopK, Stats, error) {
								return ix.Retrieve(ctx, q, prob, sink, ro)
							}
						}
						want, wantC := cutAnswer(t, q, prob, 1, run(RunOptions{}))
						if quantize && wantC.QuantScreened == 0 {
							t.Fatalf("%s: nothing screened", name)
						}
						for _, rows := range []int{3, q.N()} {
							got, gotC := cutAnswer(t, q, prob, rows, run(RunOptions{}))
							for i := range want {
								if !slices.Equal(got[i], want[i]) {
									t.Fatalf("%s panel=%d row %d:\n got %v\nwant %v", name, rows, i, got[i], want[i])
								}
							}
							if gotC != wantC {
								t.Fatalf("%s panel=%d counters:\n got %+v\nwant %+v", name, rows, gotC, wantC)
							}
						}
						got, gotC := cutAnswer(t, q, prob, q.N(), run(RunOptions{Parallelism: 4}))
						for i := range want {
							if !slices.Equal(got[i], want[i]) {
								t.Fatalf("%s four workers row %d:\n got %v\nwant %v", name, i, got[i], want[i])
							}
						}
						if gotC != wantC {
							t.Fatalf("%s four workers counters:\n got %+v\nwant %+v", name, gotC, wantC)
						}
					}
				}
			}
		}
	})
}

// TestFlushBlockMatchesVerifyCands queues the LENGTH pairs of up to four
// queries on one bucket and flushes them: each query must see the
// survivors, values and counters verifyCands gives it alone, and a pair
// gathered but not yet verified when the block flushes keeps its
// candidates.
func TestFlushBlockMatchesVerifyCands(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		ix, q, _ := blockFixture(t, AlgL, true, false)
		qs, err := prepareQueries(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, bi := range []int{0, 1, len(ix.scan) / 2} {
			b := ix.scan[bi]
			for m := 1; m <= 4; m++ {
				s, one := newScratch(ix.maxBucket, ix.r), newScratch(ix.maxBucket, ix.r)
				s.beginTile(0, qs.n())
				one.beginTile(0, qs.n())
				var got, want Stats
				gotVals := make([][]float64, m)
				wantVals := make([][]float64, m)
				cut := func(j int) float64 { return float64(j) * 0.3 }
				queued := 0
				for j := range m {
					qi := 10 + 23*j
					runLength(b, 2*cut(j)/3, qs.lens[qi], ix.slack, s)
					if ix.queueScreen(b, bi, s, int32(qi), qs.row(qi), cut(j), &got) {
						queued++
					}
					runLength(b, 2*cut(j)/3, qs.lens[qi], ix.slack, one)
					ix.verifyCands(bi, one, int32(qi), qs.row(qi), cut(j), &want)
					wantVals[j] = slices.Clone(one.vals)
				}
				if queued != m {
					t.Fatalf("bucket %d: %d of %d LENGTH pairs queued", bi, queued, m)
				}
				s.resetCands()
				s.cand = append(s.cand, 3, 1, 4)
				ix.flushBlock(b, qs, s, &got, func(_ *bucket, qi int32) {
					gotVals[(int(qi)-10)/23] = slices.Clone(s.vals)
				})
				if s.prefix || !slices.Equal(s.cand, []int32{3, 1, 4}) {
					t.Fatalf("flush changed the pending pair's candidates to %v (prefix %v)", s.cand, s.prefix)
				}
				for j := range m {
					if !slices.Equal(gotVals[j], wantVals[j]) {
						t.Fatalf("bucket %d, %d queued, query %d:\n got %v\nwant %v", bi, m, j, gotVals[j], wantVals[j])
					}
				}
				if got != want {
					t.Fatalf("bucket %d, %d queued: counters\n got %+v\nwant %+v", bi, m, got, want)
				}
			}
		}
	})
}
