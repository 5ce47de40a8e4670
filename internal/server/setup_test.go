package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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
