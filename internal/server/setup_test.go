package server

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"lemp"
)

// TestLengthServerNeverTunes: a server tunes nothing, whatever its Config
// asks for. Built with the default options, or with options asking for LI
// and a fixed φ, it runs LENGTH: its Row-Top-k and Above-θ requests run no
// tuning pass and build no sorted list, and neither does the server
// restored from its snapshot.
func TestLengthServerNeverTunes(t *testing.T) {
	q, p := smokeMatrices(t)
	queries, err := json.Marshal([][]float64{q.Vec(0), q.Vec(1), q.Vec(2)})
	if err != nil {
		t.Fatal(err)
	}
	topk, above := fmt.Sprintf(`{"queries":%s,"k":10}`, queries), fmt.Sprintf(`{"queries":%s,"theta":1}`, queries)
	for _, tc := range []struct {
		name string
		opts lemp.Options
	}{
		{"default options", lemp.Options{Parallelism: 1}},
		{"options asking for LI", lemp.Options{Algorithm: lemp.AlgorithmLI, Phi: 3, Parallelism: 1}},
	} {
		cfg := Config{Options: tc.opts}
		built, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		servesUntuned(t, tc.name+", built", built, topk, above)
		restored, err := NewFromSnapshot(snapshotReaders(writeShardSnapshots(t, built)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		servesUntuned(t, tc.name+", restored", restored, topk, above)
	}
}

// servesUntuned posts a /v1/topk and a /v1/above body to srv and checks
// that it ran neither a tuning pass nor a sorted-list build: /stats reads
// tunings, tune_ns and tune_cache_hits 0, and the index is a LENGTH index
// with no list in any bucket.
func servesUntuned(t *testing.T, name string, srv *Server, topk, above string) {
	t.Helper()
	h := srv.Handler()
	for path, body := range map[string]string{"/v1/topk": topk, "/v1/above": above} {
		if w := doJSON(t, h, "POST", path, body); w.Code != 200 {
			t.Fatalf("%s: %s answered %d: %s", name, path, w.Code, w.Body)
		}
	}
	var st statsResponse
	if err := json.Unmarshal(doJSON(t, h, "GET", "/stats", "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Core.Queries == 0 || st.Core.Tunings != 0 || st.Core.TuneTime != 0 || st.Core.TuneCacheHits != 0 {
		t.Errorf("%s: /stats queries %d, tunings %d, tune_ns %d, tune_cache_hits %d; want queries and no tuning",
			name, st.Core.Queries, st.Core.Tunings, st.Core.TuneTime.Nanoseconds(), st.Core.TuneCacheHits)
	}
	ix := srv.Sharded().current()
	indexed := 0
	for _, b := range ix.Buckets() {
		if b.Indexed {
			indexed++
		}
	}
	if alg := ix.Options().Algorithm; alg != lemp.AlgorithmL || ix.Pretuned() || ix.ListBytes() != 0 || indexed != 0 {
		t.Errorf("%s: the index runs %v (pretuned %v) with %d list bytes over %d indexed buckets; want LENGTH and no list",
			name, alg, ix.Pretuned(), ix.ListBytes(), indexed)
	}
	body := doJSON(t, h, "GET", "/stats", "").Body.String()
	for _, gone := range []string{"list_bytes", "indexed_buckets"} {
		if strings.Contains(body, gone) {
			t.Errorf("%s: /stats still reports %s", name, gone)
		}
	}
}
