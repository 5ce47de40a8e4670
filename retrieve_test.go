package lemp_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lemp"
)

// genTestMatrix draws n random vectors of dimension r with lognormal
// lengths, the shape every retrieval test in this package uses.
func genTestMatrix(rng *rand.Rand, n, r int) *lemp.Matrix {
	m := lemp.NewMatrix(r, n)
	for i := 0; i < n; i++ {
		v := m.Vec(i)
		var norm2 float64
		for f := range v {
			v[f] = rng.NormFloat64()
			norm2 += v[f] * v[f]
		}
		scale := math.Exp(0.5*rng.NormFloat64()) / math.Sqrt(norm2)
		for f := range v {
			v[f] *= scale
		}
	}
	return m
}

func retrieveFixture(t *testing.T) (*lemp.Index, *lemp.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	p := genTestMatrix(rng, 400, 8)
	q := genTestMatrix(rng, 48, 8)
	ix, err := lemp.New(p, lemp.Options{MinBucketSize: 10, CacheBytes: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	return ix, q
}

// TestNewSpecValidation is the table-driven option check, run through
// Retrieve: every conflict and out-of-range parameter errors before any
// retrieval work, and every valid set of options answers.
func TestNewSpecValidation(t *testing.T) {
	ix, q := retrieveFixture(t)
	emit := func(lemp.Entry) {}
	tc := lemp.NewTuningCache()
	cases := []struct {
		name    string
		opts    []lemp.Option
		wantErr string // substring; "" means the spec must validate
	}{
		{"topk", []lemp.Option{lemp.TopK(5)}, ""},
		{"above", []lemp.Option{lemp.AboveTheta(0.5)}, ""},
		{"everything-topk", []lemp.Option{lemp.TopK(5), lemp.WithParallelism(2), lemp.WithTuningCache(tc)}, ""},
		{"everything-above", []lemp.Option{lemp.AboveTheta(1), lemp.Stream(emit), lemp.WithParallelism(4), lemp.WithTuningCache(tc)}, ""},

		{"no-mode", nil, "no retrieval mode"},
		{"no-mode-options-only", []lemp.Option{lemp.WithParallelism(2)}, "no retrieval mode"},
		{"both-modes", []lemp.Option{lemp.TopK(5), lemp.AboveTheta(0.5)}, "mode already set"},
		{"both-modes-reversed", []lemp.Option{lemp.AboveTheta(0.5), lemp.TopK(5)}, "mode already set"},
		{"topk-twice", []lemp.Option{lemp.TopK(5), lemp.TopK(6)}, "mode already set"},

		{"zero-k", []lemp.Option{lemp.TopK(0)}, "k must be positive"},
		{"negative-k", []lemp.Option{lemp.TopK(-3)}, "k must be positive"},
		{"zero-theta", []lemp.Option{lemp.AboveTheta(0)}, "theta must be"},
		{"negative-theta", []lemp.Option{lemp.AboveTheta(-1)}, "theta must be"},
		{"nan-theta", []lemp.Option{lemp.AboveTheta(math.NaN())}, "theta must be"},
		{"inf-theta", []lemp.Option{lemp.AboveTheta(math.Inf(1))}, "theta must be"},

		{"zero-parallelism", []lemp.Option{lemp.TopK(5), lemp.WithParallelism(0)}, "parallelism must be"},
		{"negative-parallelism", []lemp.Option{lemp.TopK(5), lemp.WithParallelism(-1)}, "parallelism must be"},
		{"parallelism-twice", []lemp.Option{lemp.TopK(5), lemp.WithParallelism(2), lemp.WithParallelism(3)}, "given twice"},

		{"nil-cache", []lemp.Option{lemp.TopK(5), lemp.WithTuningCache(nil)}, "non-nil cache"},
		{"nil-stream", []lemp.Option{lemp.AboveTheta(0.5), lemp.Stream(nil)}, "non-nil emit"},
		{"nil-option", []lemp.Option{lemp.TopK(5), nil}, "nil Option"},

		{"stream-with-topk", []lemp.Option{lemp.TopK(5), lemp.Stream(emit)}, "Stream applies only"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := ix.Retrieve(context.Background(), q, c.opts...)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Retrieve: unexpected error %v", err)
				}
				if res == nil {
					t.Fatal("Retrieve returned nil result without error")
				}
				return
			}
			if err == nil {
				t.Fatalf("Retrieve accepted invalid options, want error containing %q", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Retrieve error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}

// TestRetrieveRejectsBeforeWork asserts a call without a mode fails
// without touching the index.
func TestRetrieveRejectsBeforeWork(t *testing.T) {
	ix, q := retrieveFixture(t)
	if _, err := ix.Retrieve(context.Background(), q); err == nil {
		t.Fatal("Retrieve without a mode succeeded")
	}
}

// TestRetrieveModesFillTheirResult checks what each mode puts in a Result:
// TopK fills rows and no entries, AboveTheta collects entries and no rows,
// Stream delivers the same entry set and materializes nothing.
func TestRetrieveModesFillTheirResult(t *testing.T) {
	ix, q := retrieveFixture(t)
	ctx := context.Background()

	res, err := ix.Retrieve(ctx, q, lemp.TopK(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != q.N() || res.Entries != nil {
		t.Fatalf("TopK mode: %d rows for %d queries, Entries set: %v", len(res.TopK), q.N(), res.Entries != nil)
	}
	res, err = ix.Retrieve(ctx, q, lemp.AboveTheta(0.8))
	if err != nil {
		t.Fatal(err)
	}
	wantEnts := res.Entries
	if len(wantEnts) == 0 || res.TopK != nil {
		t.Fatalf("AboveTheta mode: %d entries, TopK set: %v", len(wantEnts), res.TopK != nil)
	}
	lemp.SortEntries(wantEnts)

	var streamed []lemp.Entry
	res, err = ix.Retrieve(ctx, q, lemp.AboveTheta(0.8), lemp.Stream(func(e lemp.Entry) { streamed = append(streamed, e) }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries != nil {
		t.Fatal("streamed call materialized Entries")
	}
	lemp.SortEntries(streamed)
	if !reflect.DeepEqual(streamed, wantEnts) {
		t.Fatal("Stream entries differ from collected entries")
	}
}

// TestRetrieveTuningCacheZeroWork is the acceptance criterion: Retrieve
// with WithTuningCache on a warm cache performs zero sample-tuning work,
// asserted via Stats, with byte-identical results.
func TestRetrieveTuningCacheZeroWork(t *testing.T) {
	ix, q := retrieveFixture(t)
	ctx := context.Background()
	tc := lemp.NewTuningCache()

	want, _, err := rowTopK(ix, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := ix.Retrieve(ctx, q, lemp.TopK(10), lemp.WithTuningCache(tc))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Tunings != 1 {
		t.Fatalf("cold call Tunings = %d, want 1", cold.Stats.Tunings)
	}
	warm, err := ix.Retrieve(ctx, q, lemp.TopK(10), lemp.WithTuningCache(tc))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Tunings != 0 || warm.Stats.TuneCacheHits != 1 || warm.Stats.TuneTime != 0 {
		t.Fatalf("warm call: Tunings=%d TuneCacheHits=%d TuneTime=%v, want 0/1/0",
			warm.Stats.Tunings, warm.Stats.TuneCacheHits, warm.Stats.TuneTime)
	}
	if !reflect.DeepEqual(cold.TopK, want) || !reflect.DeepEqual(warm.TopK, want) {
		t.Fatal("cached results differ from an uncached call")
	}
}

// TestResultEpoch checks Result carries the mutation epoch it answered at.
func TestResultEpoch(t *testing.T) {
	ix, q := retrieveFixture(t)
	res, err := ix.Retrieve(context.Background(), q, lemp.TopK(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 0 {
		t.Fatalf("fresh index answered at epoch %d, want 0", res.Epoch)
	}
	if ix, _, err = ix.WithUpdates([]lemp.ProbeUpdate{{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: q.Vec(0)}}); err != nil {
		t.Fatal(err)
	}
	res, err = ix.Retrieve(context.Background(), q, lemp.TopK(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 {
		t.Fatalf("post-update call answered at epoch %d, want 1", res.Epoch)
	}
}

// TestRetrieveCancellation checks ctx.Err surfaces through the public API
// and the index survives.
func TestRetrieveCancellation(t *testing.T) {
	ix, q := retrieveFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.Retrieve(ctx, q, lemp.TopK(3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := ix.Retrieve(context.Background(), q, lemp.TopK(3)); err != nil {
		t.Fatalf("index unusable after cancellation: %v", err)
	}
}

// TestSnapshotRestoredPretuneSurvivesCompact is the satellite fix: a
// snapshot of a pretuned index retains the tuning sample, so a post-restore
// Compact re-freezes fitted per-bucket parameters instead of silently
// dropping to defaults.
func TestSnapshotRestoredPretuneSurvivesCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := genTestMatrix(rng, 300, 8)
	q := genTestMatrix(rng, 32, 8)
	ix, err := lemp.New(p, lemp.Options{Algorithm: lemp.AlgorithmLI, MinBucketSize: 10, CacheBytes: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.PretuneTopK(q, 5); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := lemp.LoadIndex(bytes.NewReader(buf.Bytes()), lemp.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Pretuned() {
		t.Fatal("restored index lost its pretuned state")
	}

	// Mutate enough to make Compact rebuild, then compact.
	for i := 0; i < 10; i++ {
		if restored, _, err = restored.WithUpdates([]lemp.ProbeUpdate{{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: q.Vec(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	restored.Compact()

	tuned := 0
	for _, b := range restored.Buckets() {
		if b.Tuned {
			tuned++
		}
	}
	if tuned == 0 {
		t.Fatal("post-restore Compact left every bucket untuned: the retained tuning sample was lost")
	}

	// Retrieval after the compacted restore reports zero tuning work
	// (still frozen) and matches a fresh build over the same live set.
	res, err := restored.Retrieve(context.Background(), q, lemp.TopK(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tunings != 0 {
		t.Fatalf("pretuned restored index re-tuned per call (Tunings=%d)", res.Stats.Tunings)
	}
	live, ids := restored.LiveProbes()
	fresh, err := lemp.NewWithIDs(live, ids, lemp.Options{MinBucketSize: 10, CacheBytes: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := rowTopK(fresh, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.TopK, want) {
		t.Fatal("restored+compacted pretuned index differs from fresh build")
	}

	// Retune at load discards the retained sample along with the fit.
	retuned, err := lemp.LoadIndex(bytes.NewReader(buf.Bytes()), lemp.LoadOptions{Retune: true})
	if err != nil {
		t.Fatal(err)
	}
	if retuned.Pretuned() {
		t.Fatal("Retune load kept the frozen tuning state")
	}
}

// TestQueriesObeyTheProbesRule checks that a query row whose length is not
// finite (a NaN or infinite coordinate, or finite ones whose squared length
// overflows) is refused as lemp.New refuses such a probe: by Retrieve for
// both problems, by Pretune and by a bulk job, with an error naming the row.
// The index is left as it was and answers the next call exactly.
func TestQueriesObeyTheProbesRule(t *testing.T) {
	ix, good := retrieveFixture(t)
	want, _, err := rowTopK(ix, good, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, dir := context.Background(), t.TempDir()
	for _, bad := range []struct {
		name, err string
		x         float64
	}{
		{"NaN", "query 17: coordinate 2 is NaN", math.NaN()},
		{"+Inf", "query 17: coordinate 2 is +Inf", math.Inf(1)},
		{"overflow", "query 17: length is +Inf", 1e200},
	} {
		q := good.Clone()
		q.Vec(17)[2] = bad.x
		if bad.name == "overflow" {
			for f := range q.Vec(17) {
				q.Vec(17)[f] = bad.x
			}
		}
		calls := []struct {
			name string
			call func() error
		}{
			{"TopK", func() error { _, err := ix.Retrieve(ctx, q, lemp.TopK(5)); return err }},
			{"AboveTheta", func() error {
				_, err := ix.Retrieve(ctx, q, lemp.AboveTheta(0.5), lemp.Stream(func(lemp.Entry) {}))
				return err
			}},
			{"PretuneTopK", func() error { return ix.PretuneTopK(q, 5) }},
			{"PretuneAboveTheta", func() error { return ix.PretuneAboveTheta(q, 0.5) }},
			{"BulkTopK", func() error {
				// Row 17 is row 1 of the panel [16,32).
				_, err := ix.BulkTopK(ctx, lemp.BulkQueries(q), filepath.Join(dir, "top"), 5, lemp.BulkOptions{PanelRows: 16})
				if err != nil && !strings.Contains(err.Error(), "panel [16,32)") {
					t.Errorf("%s BulkTopK: %v does not name the panel", bad.name, err)
				}
				return err
			}},
		}
		for _, c := range calls {
			err := c.call()
			wantErr := bad.err
			if c.name == "BulkTopK" {
				wantErr = strings.Replace(wantErr, "query 17", "query 1", 1)
			}
			if err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Errorf("%s %s: err = %v, want one containing %q", bad.name, c.name, err, wantErr)
			}
		}
	}
	if ix.Pretuned() {
		t.Error("a refused sample pretuned the index")
	}
	got, _, err := rowTopK(ix, good, 5)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("after the refusals: err %v, rows differ: %v", err, !reflect.DeepEqual(got, want))
	}
}
