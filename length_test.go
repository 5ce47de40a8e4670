package lemp_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"lemp"
	"lemp/internal/data"
)

// TestLengthIndexNeverTunes: an index built with AlgorithmL has no
// per-bucket parameters, so nothing it does runs
// the sample tuner of §4.4 or builds a sorted list — not a retrieval of
// either problem (with or without a tuning cache), not a bulk job, not a
// pretune, an update or a Compact, and not the index restored from its own
// snapshot. Every step reports Tunings == 0 and TuneTime == 0, and the
// index holds no list bytes after it.
func TestLengthIndexNeverTunes(t *testing.T) {
	q, p := data.Smoke.Generate()
	ix, err := lemp.New(p, lemp.Options{Algorithm: lemp.AlgorithmL})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	check := func(step string, ix *lemp.Index, st lemp.Stats) {
		t.Helper()
		if st.Tunings != 0 || st.TuneTime != 0 || st.TuneCacheHits != 0 {
			t.Errorf("%s: Tunings %d, TuneTime %v, TuneCacheHits %d, want none", step, st.Tunings, st.TuneTime, st.TuneCacheHits)
		}
		if b := ix.ListBytes(); b != 0 {
			t.Errorf("%s: the index holds %d bytes of sorted lists, want 0", step, b)
		}
	}
	retrieve := func(step string, ix *lemp.Index, opts ...lemp.Option) {
		t.Helper()
		for _, prob := range []lemp.Option{lemp.TopK(10), lemp.AboveTheta(1)} {
			res, err := ix.Retrieve(ctx, q, append([]lemp.Option{prob}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			check(step, ix, res.Stats)
		}
	}
	retrieve("Retrieve", ix)
	retrieve("Retrieve with a tuning cache", ix, lemp.WithTuningCache(lemp.NewTuningCache()))

	dir := t.TempDir()
	st, err := ix.BulkTopK(ctx, lemp.BulkQueries(q), filepath.Join(dir, "top"), 10, lemp.BulkOptions{PanelRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	check("BulkTopK", ix, st.Core)
	if st, err = ix.BulkAboveTheta(ctx, lemp.BulkQueries(q), filepath.Join(dir, "above"), 1, lemp.BulkOptions{PanelRows: 64}); err != nil {
		t.Fatal(err)
	}
	check("BulkAboveTheta", ix, st.Core)

	if err := ix.PretuneTopK(q.Head(32), 10); err != nil {
		t.Fatal(err)
	}
	for _, b := range ix.Buckets() {
		if b.Tuned || b.Indexed {
			t.Fatalf("PretuneTopK fitted or indexed a bucket: %+v", b)
		}
	}
	retrieve("Retrieve after PretuneTopK", ix)

	for i := range 40 {
		if ix, _, err = ix.WithUpdates([]lemp.ProbeUpdate{{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: q.Vec(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	retrieve("Retrieve over runs", ix)
	ix.Compact()
	retrieve("Retrieve after Compact", ix)

	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := lemp.LoadIndex(&buf, lemp.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Options().Algorithm; got != lemp.AlgorithmL {
		t.Fatalf("restored index runs %v, want L", got)
	}
	retrieve("Retrieve after LoadIndex", restored)
}
