package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"lemp/internal/matrix"
	"lemp/internal/retrieval"
	"lemp/internal/vecmath"
)

// addCounters accumulates the Stats fields that sum over (query, bucket)
// pairs — the ones a parallel scan sums over its workers — and so must not
// depend on how the queries are cut into tiles. Everything else in sum
// stays zero, so two sums compare with ==.
func addCounters(sum *Stats, st Stats) {
	st.Queries, st.Tunings, st.TuneCacheHits = 0, 0, 0
	st.TuneTime, st.RetrievalTime = 0, 0
	sum.Add(st)
}

// cutAnswer answers q through run in panels of panelRows rows and returns
// the per-query rows under global row ids with the summed counters. An
// Above-θ row is sorted by probe: only its entry set is specified.
func cutAnswer(t *testing.T, q *matrix.Matrix, p Problem, panelRows int, run func(*matrix.Matrix, retrieval.Sink) (retrieval.TopK, Stats, error)) ([][]retrieval.Entry, Stats) {
	t.Helper()
	rows := make([][]retrieval.Entry, q.N())
	var sum Stats
	for lo := 0; lo < q.N(); lo += panelRows {
		var sink retrieval.Sink
		if p.K == 0 {
			sink = func(e retrieval.Entry) {
				e.Query += lo
				rows[e.Query] = append(rows[e.Query], e)
			}
		}
		top, st, err := run(q.Slice(lo, min(lo+panelRows, q.N())), sink)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range top {
			for j := range row {
				row[j].Query += lo
			}
			rows[lo+i] = row
		}
		addCounters(&sum, st)
	}
	if p.K == 0 {
		for _, row := range rows {
			retrieval.Sort(row)
		}
	}
	return rows, sum
}

// tileFixture builds a many-bucket index with frozen tuning (so every call
// resolves the same per-bucket methods, whatever its first panel was) and a
// query matrix holding zero-length rows inside its tiles. With mutate, the
// index additionally carries tombstones and delta buckets.
func tileFixture(t *testing.T, alg Algorithm, quantize, mutate bool) (*Index, *matrix.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(311))
	const r = 8
	p := genMatrix(rng, 300, r, 0.7, 1, false, 2, 6)
	q := genMatrix(rng, 270, r, 0.5, 1, false, 0, 0) // > topkTileRows: a 256-row panel plus a ragged one
	for _, row := range []int{0, 5, 6, 130, 269} {
		clear(q.Vec(row))
	}
	opts := testOptions(alg)
	opts.Quantize = quantize
	ix, err := NewIndex(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Pretune(q.Slice(10, 40), Problem{K: 7}); err != nil {
		t.Fatal(err)
	}
	if mutate {
		var ups []ProbeUpdate
		for id := int32(0); id < 60; id += 3 {
			ups = append(ups, ProbeUpdate{Op: OpRemove, ID: id})
		}
		for i := 0; i < 50; i++ {
			ups = append(ups, ProbeUpdate{Op: OpAdd, ID: int32(1000 + i), Vec: randVec(rng, r)})
		}
		for id := int32(100); id < 130; id += 2 {
			ups = append(ups, ProbeUpdate{Op: OpUpdate, ID: id, Vec: randVec(rng, r)})
		}
		if _, err := ix.Apply(ups); err != nil {
			t.Fatal(err)
		}
		if base := ix.segs[0]; len(ix.segs) == 1 || base.live == len(base.ids) {
			t.Fatal("mutated fixture has no delta buckets or no tombstones")
		}
	}
	if ix.NumBuckets() < 8 {
		t.Fatalf("fixture has %d buckets, want many", ix.NumBuckets())
	}
	return ix, q
}

// TestTopKTilesMatchPerRowLoop is the differential test of the executor's
// cuts, for both problems: answering the queries as panels of 1, 2, 7 or
// 256 rows through Job.Run, or in one serial or four-worker Retrieve (which
// tiles internally, the serial one across a 256-row boundary), must give,
// for every query, the entries a one-row call gives — Row-Top-k: same
// probes, same value bits, same order; Above-θ: the same set with the same
// value bits — and the summed counters of the one-row calls, for every
// bucket algorithm and for a candidate generator that lists every local id
// (RunOptions.Gen), with and without tombstones + delta buckets, with and
// without the int8 screen.
func TestTopKTilesMatchPerRowLoop(t *testing.T) {
	ctx := context.Background()
	type method struct {
		name string
		alg  Algorithm
		gen  func() CandidateGen
	}
	var methods []method
	for _, alg := range diffAlgorithms {
		methods = append(methods, method{name: alg.String(), alg: alg})
	}
	methods = append(methods, method{name: "all-lids", alg: AlgLI, gen: func() CandidateGen { return allLidsGen{} }})
	for _, m := range methods {
		for _, mutate := range []bool{false, true} {
			for _, quantize := range []bool{false, true} {
				name := fmt.Sprintf("%s/mutated=%v/quant=%v", m.name, mutate, quantize)
				t.Run(name, func(t *testing.T) {
					ix, all := tileFixture(t, m.alg, quantize, mutate)
					var base RunOptions
					if m.gen != nil {
						base.Gen = m.gen()
					}
					for _, prob := range []Problem{{K: 7}, {K: ix.LiveN() + 50}, {Theta: 1.5}} {
						q := all
						if prob.K > ix.LiveN() { // every row holds every live probe: a few rows suffice
							q = all.Slice(0, 40)
						}
						oneShot := func(ro RunOptions) func(*matrix.Matrix, retrieval.Sink) (retrieval.TopK, Stats, error) {
							return func(q *matrix.Matrix, sink retrieval.Sink) (retrieval.TopK, Stats, error) {
								return ix.Retrieve(ctx, q, prob, sink, ro)
							}
						}
						want, wantC := cutAnswer(t, q, prob, 1, oneShot(base))
						if quantize && prob.K != ix.LiveN()+50 && wantC.QuantScreened == 0 {
							t.Fatalf("%+v: quantized fixture screened nothing", prob)
						}
						if prob.K == 0 && (wantC.Results == 0 || wantC.PrunedPairs == 0 || wantC.ProcessedPairs == 0) {
							t.Fatalf("Above-θ fixture is degenerate: %+v", wantC)
						}
						check := func(cut string, got [][]retrieval.Entry, gotC Stats) {
							t.Helper()
							for i := range want {
								if !slices.Equal(got[i], want[i]) {
									t.Fatalf("%+v %s row %d:\n got %v\nwant %v", prob, cut, i, got[i], want[i])
								}
							}
							if gotC != wantC {
								t.Fatalf("%+v %s counters:\n got %+v\nwant %+v", prob, cut, gotC, wantC)
							}
							if pairs := int64(q.N()) * int64(ix.NumBuckets()); prob.K == 0 && gotC.ProcessedPairs+gotC.PrunedPairs != pairs {
								t.Fatalf("%+v %s: %d processed + %d pruned pairs, want %d", prob, cut, gotC.ProcessedPairs, gotC.PrunedPairs, pairs)
							}
						}
						check("one-row calls", want, wantC)
						for _, panelRows := range []int{1, 2, 7, 256} {
							job, err := ix.NewJob(prob, base)
							if err != nil {
								t.Fatal(err)
							}
							got, gotC := cutAnswer(t, q, prob, panelRows, func(q *matrix.Matrix, sink retrieval.Sink) (retrieval.TopK, Stats, error) {
								return job.Run(ctx, q, sink)
							})
							check(fmt.Sprintf("panel=%d", panelRows), got, gotC)
						}
						got, gotC := cutAnswer(t, q, prob, q.N(), oneShot(base))
						check("serial Retrieve", got, gotC)
						par := base
						par.Parallelism = 4
						got, gotC = cutAnswer(t, q, prob, q.N(), oneShot(par))
						check("Retrieve at Parallelism 4", got, gotC)
					}
				})
			}
		}
	}
	// LENGTH and the whole-bucket fallback record their candidates as a
	// prefix flag instead of a list. A tombstone inside the prefix must
	// clear the flag, and from there on the pair must verify to the lids
	// and value bits of the written-out list; with no tombstone in reach the
	// flag must survive to the panel kernel.
	t.Run("prefix flag set, one tombstone inside the prefix", func(t *testing.T) {
		ix, q := tileFixture(t, AlgL, false, false)
		b := ix.scan[0]
		if _, err := ix.Apply([]ProbeUpdate{{Op: OpRemove, ID: b.ids[1]}}); err != nil {
			t.Fatal(err)
		}
		qdir := make([]float64, ix.r)
		vecmath.Normalize(qdir, q.Vec(1))
		var st Stats
		s, want := newScratch(ix.maxBucket, ix.r), newScratch(ix.maxBucket, ix.r)
		runLength(b, math.Inf(-1), 1, 0, s)
		if !s.prefix || len(s.cand) != b.size() {
			t.Fatalf("LENGTH at θ = -Inf: prefix=%v over %d of %d rows", s.prefix, len(s.cand), b.size())
		}
		ix.compactLiveCands(0, s)
		if s.prefix {
			t.Fatal("prefix flag survived a tombstone inside the prefix")
		}
		verifyDots(b, qdir, s, &st)
		want.resetCands()
		for lid := 0; lid < b.size(); lid++ {
			want.cand = append(want.cand, int32(lid))
		}
		ix.compactLiveCands(0, want)
		verifyDots(b, qdir, want, &st)
		if len(s.cand) != b.size()-1 || !slices.Equal(s.cand, want.cand) || !slices.Equal(s.vals, want.vals) {
			t.Fatalf("flagged prefix:\n got %v %v\nwant %v %v", s.cand, s.vals, want.cand, want.vals)
		}
		// The next base bucket holds no tombstone: the flag reaches the
		// verifier, which must give the written-out list's values.
		b = ix.scan[1]
		allCandidates(b, s)
		ix.compactLiveCands(1, s)
		if !s.prefix {
			t.Fatal("prefix flag cleared with no tombstone inside the prefix")
		}
		verifyDots(b, qdir, s, &st)
		want.resetCands()
		want.cand = append(want.cand, s.lids()...)
		verifyDots(b, qdir, want, &st)
		if !slices.Equal(s.vals, want.vals) {
			t.Fatalf("panel kernel over a flagged prefix:\n got %v\nwant %v", s.vals, want.vals)
		}
	})
}

// TestTopKCancelMidTile cancels a one-tile panel while its bucket loop is
// running: the call must return the context's error with no rows, and the
// index must answer the same panel correctly afterwards. The cancellation
// is timed (a top-k scan calls nothing of the caller's), so the delay is
// searched for: a canceled call that had processed some but not all pairs
// was stopped inside the tile.
func TestTopKCancelMidTile(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	const r, k = 32, 5
	p := genMatrix(rng, 30000, r, 0.3, 1, false, 0, 0)
	q := genMatrix(rng, 256, r, 0.3, 1, false, 0, 0)
	ix, err := NewIndex(p, Options{Algorithm: AlgL, CacheBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ix.NewJob(Problem{K: k}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, full, err := pr.Run(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	hit := false
	for delay := 50 * time.Microsecond; delay < 2*time.Second && !hit; delay += delay / 2 {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(delay, cancel)
		rows, st, err := pr.Run(ctx, q, nil)
		timer.Stop()
		cancel()
		if err == nil {
			break // the delay outgrew the scan
		}
		if !errors.Is(err, context.Canceled) || rows != nil {
			t.Fatalf("canceled panel returned rows=%v err=%v, want nil rows and context.Canceled", rows != nil, err)
		}
		hit = st.ProcessedPairs > 0 && st.ProcessedPairs < full.ProcessedPairs
	}
	if !hit {
		t.Skip("no delay landed inside the tile's scan on this machine")
	}
	again, st, err := pr.Run(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fullC, againC Stats
	addCounters(&fullC, full)
	addCounters(&againC, st)
	if !slices.EqualFunc(again, want, slices.Equal[[]retrieval.Entry]) || againC != fullC {
		t.Fatal("panel answered differently after a mid-tile cancellation")
	}
}

// TestConcurrentPanelsOnFreshIndex is the bulk engine's access pattern from
// its very first panel, for the race detector: concurrent panel calls on an
// index no call has touched, so the job's tuning pass, the lazy sorted-list
// and — at a dimension quant's assembly takes — sidecar builds of the panels
// behind it all overlap.
func TestConcurrentPanelsOnFreshIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(317))
	const r, panelRows = 16, 16
	p := genMatrix(rng, 900, r, 0.6, 1, false, 0, 0)
	q := genMatrix(rng, 128, r, 0.6, 1, false, 0, 0)
	opts := testOptions(AlgLI)
	opts.TuneByCost = false
	panels := func(run func(lo, hi int) (Stats, error)) {
		t.Helper()
		var wg sync.WaitGroup
		var mu sync.Mutex
		tunings := 0
		for lo := 0; lo < q.N(); lo += panelRows {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, err := run(lo, lo+panelRows)
				if err != nil {
					t.Error(err)
				}
				mu.Lock()
				tunings += st.Tunings
				mu.Unlock()
			}()
		}
		wg.Wait()
		if tunings != 1 {
			t.Errorf("job ran %d tuning passes, want exactly 1", tunings)
		}
	}

	ix, err := NewIndex(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	top, err := ix.NewJob(Problem{K: 4}, RunOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	panels(func(lo, hi int) (Stats, error) {
		_, st, err := top.Run(context.Background(), q.Slice(lo, hi), nil)
		return st, err
	})

	ix, err = NewIndex(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	theta, _ := safeTheta(t, q, p, 200)
	above, err := ix.NewJob(Problem{Theta: theta}, RunOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	panels(func(lo, hi int) (Stats, error) {
		_, st, err := above.Run(context.Background(), q.Slice(lo, hi), func(retrieval.Entry) {})
		return st, err
	})
}
