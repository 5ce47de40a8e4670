package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"lemp"
)

// TestLengthServerNeverTunes: a server built with AlgorithmL tunes nothing.
// Its warm-up — every shard pretuned as lemp-serve
// -save-snapshot does, then Row-Top-k and Above-θ requests — and its
// /v1/topk traffic run no tuning pass and build no sorted list, and neither
// does the server restored from its snapshots.
func TestLengthServerNeverTunes(t *testing.T) {
	q, p := smokeMatrices(t)
	cfg := testConfig()
	cfg.Options.Algorithm = lemp.AlgorithmL
	built, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, ix := range built.Sharded().Indexes() {
		if err := ix.PretuneTopK(q.Head(64), 10); err != nil {
			t.Fatalf("pretuning shard %d: %v", i, err)
		}
	}
	queries, err := json.Marshal([][]float64{q.Vec(0), q.Vec(1), q.Vec(2)})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(name string, srv *Server) {
		t.Helper()
		h := srv.Handler()
		for _, body := range []string{
			fmt.Sprintf(`{"queries":%s,"k":10}`, queries),
			fmt.Sprintf(`{"queries":%s,"theta":1}`, queries),
		} {
			path := "/v1/topk"
			if strings.Contains(body, "theta") {
				path = "/v1/above"
			}
			if w := doJSON(t, h, "POST", path, body); w.Code != 200 {
				t.Fatalf("%s: %s answered %d: %s", name, path, w.Code, w.Body)
			}
		}
		var st statsResponse
		if err := json.Unmarshal(doJSON(t, h, "GET", "/stats", "").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Core.Tunings != 0 || st.Core.TuneTime != 0 || st.Core.TuneCacheHits != 0 || st.ListBytes != 0 || st.Core.IndexedBuckets != 0 {
			t.Errorf("%s: /stats tunings %d, tune_ns %d, tune_cache_hits %d, list_bytes %d, indexed_buckets %d, want all 0",
				name, st.Core.Tunings, st.Core.TuneTime.Nanoseconds(), st.Core.TuneCacheHits, st.ListBytes, st.Core.IndexedBuckets)
		}
	}
	serve("built", built)

	var bufs []*bytes.Buffer
	err = built.WriteSnapshotsWith(func(i, _ int) (io.WriteCloser, error) {
		bufs = append(bufs, &bytes.Buffer{})
		return nopWriteCloser{bufs[i]}, nil
	}, lemp.SnapshotOptions{IncludeLists: true})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewFromSnapshot(snapshotReaders(bufs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	serve("restored", restored)
}

// TestShardsBuildAndRestoreConcurrently: NewShardedPlaced and
// NewShardedFromSnapshot run their shards at the same time (run it under
// -race). Each returns the shard set a one-by-one loop would, and when
// shards fail, the error of the lowest-numbered one, whichever finishes
// first.
func TestShardsBuildAndRestoreConcurrently(t *testing.T) {
	q, p := smokeMatrices(t)
	const shards = 4
	opts := lemp.Options{Parallelism: 1}
	sh, err := NewShardedPlaced(p, nil, shards, opts, PlaceRange)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := sh.CurrentView().TopKCtx(t.Context(), q.Head(16), 7)
	if err != nil {
		t.Fatal(err)
	}

	// Range placement gives shard i the columns [i·n/4, (i+1)·n/4): poison
	// one column in each shard named.
	poisoned := func(bad ...int) *lemp.Matrix {
		m := p.Clone()
		for _, s := range bad {
			m.Vec(s * m.N() / shards)[0] = math.NaN()
		}
		return m
	}
	for _, bad := range [][]int{{2}, {3, 1}, {0, 1, 2, 3}} {
		_, err := NewShardedPlaced(poisoned(bad...), nil, shards, opts, PlaceRange)
		first := slices.Min(bad)
		if want := fmt.Sprintf("building shard %d:", first); err == nil || !strings.HasPrefix(err.Error(), "server: "+want) {
			t.Errorf("shards %v failing: err = %v, want one naming shard %d", bad, err, first)
		}
	}

	snapshots := func() [][]byte {
		var out [][]byte
		for _, ix := range sh.Indexes() {
			var buf bytes.Buffer
			if err := ix.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			out = append(out, buf.Bytes())
		}
		return out
	}
	readers := func(files [][]byte) []io.Reader {
		rs := make([]io.Reader, len(files))
		for i, f := range files {
			rs[i] = bytes.NewReader(f)
		}
		return rs
	}
	restored, err := NewShardedFromSnapshot(readers(snapshots()), lemp.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := restored.CurrentView().TopKCtx(t.Context(), q.Head(16), 7)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("the concurrently restored shards answer differently from the built ones")
	}
	for _, bad := range [][]int{{2}, {3, 1}} {
		files := snapshots()
		for _, s := range bad {
			files[s] = files[s][:len(files[s])/2]
		}
		_, err := NewShardedFromSnapshot(readers(files), lemp.LoadOptions{})
		first := slices.Min(bad)
		if want := fmt.Sprintf("server: loading shard %d snapshot:", first); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("snapshots %v truncated: err = %v, want one naming shard %d", bad, err, first)
		}
	}
}
