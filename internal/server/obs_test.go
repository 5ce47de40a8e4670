package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lemp"
	"lemp/internal/data"
	"lemp/internal/obs"
)

// obsServer builds a small wired server plus an in-memory JSON log sink.
func obsServer(t *testing.T, cfg Config) (*Server, http.Handler, *logSink) {
	t.Helper()
	_, p := data.Smoke.Generate()
	sink := &logSink{}
	cfg.Logger = slog.New(slog.NewJSONHandler(sink, &slog.HandlerOptions{Level: slog.LevelDebug}))
	srv, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, srv.Handler(), sink
}

// logSink buffers slog JSON output and decodes it back into records.
type logSink struct{ buf bytes.Buffer }

func (s *logSink) Write(p []byte) (int, error) { return s.buf.Write(p) }

func (s *logSink) records(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(s.buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		out = append(out, rec)
	}
	return out
}

func (s *logSink) find(t *testing.T, msg string) map[string]any {
	t.Helper()
	for _, rec := range s.records(t) {
		if rec["msg"] == msg {
			return rec
		}
	}
	return nil
}

func doJSON(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func topKBody(t *testing.T, dim, rows, k int) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(`{"queries":[`)
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for j := 0; j < dim; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString("0.1")
		}
		b.WriteByte(']')
	}
	b.WriteString(`],"k":`)
	b.WriteString(strconv.Itoa(k))
	b.WriteByte('}')
	return b.String()
}

// TestMetricsEndpoint drives real traffic through the handler and checks
// the /metrics exposition parses under the strict in-repo parser with every
// family the dashboards (and the CI smoke check) rely on, plus bounded
// label cardinality.
func TestMetricsEndpoint(t *testing.T) {
	srv, h, _ := obsServer(t, Config{Options: lemp.Options{Parallelism: 1}})
	dim := srv.Sharded().R()

	if w := doJSON(t, h, "POST", "/v1/topk", topKBody(t, dim, 3, 5)); w.Code != 200 {
		t.Fatalf("topk = %d: %s", w.Code, w.Body.String())
	}
	// Same queries again: nothing remembers answers, so they dispatch again.
	if w := doJSON(t, h, "POST", "/v1/topk", topKBody(t, dim, 3, 5)); w.Code != 200 {
		t.Fatalf("topk = %d: %s", w.Code, w.Body.String())
	}
	if w := doJSON(t, h, "POST", "/v1/topk", `{"queries":[[1]],"k":0}`); w.Code != 400 {
		t.Fatalf("bad topk = %d, want 400", w.Code)
	}
	if w := doJSON(t, h, "POST", "/v1/update", `{"updates":[{"op":"remove","id":0}]}`); w.Code != 200 {
		t.Fatalf("update = %d: %s", w.Code, w.Body.String())
	}

	w := doJSON(t, h, "GET", "/metrics", "")
	if w.Code != 200 {
		t.Fatalf("/metrics = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	fams, err := obs.ParseExposition(strings.NewReader(w.Body.String()))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, w.Body.String())
	}
	required := []string{
		"lemp_requests_in_flight", "lemp_request_duration_seconds",
		"lemp_http_requests_total",
		"lemp_batch_rows",
		"lemp_core_candidates_total", "lemp_core_results_total",
		"lemp_core_block_verified_total", "lemp_core_scalar_verified_total",
		"lemp_core_processed_pairs_total", "lemp_core_pruned_pairs_total",
		"lemp_core_scan_seconds_total",
		"lemp_slow_queries_total", "lemp_uptime_seconds", "lemp_ready",
		"lemp_epoch", "lemp_live_probes",
		"lemp_requests_total", "lemp_updates_total", "lemp_compactions_total",
		"lemp_batch_queue_rows",
		"lemp_traces_finished_total", "lemp_traces_retained_total",
		"lemp_requests_shed_total",
		"lemp_update_apply_seconds", "lemp_compaction_seconds",
		"lemp_quant_sidecar_bytes",
	}
	for _, name := range required {
		if fams[name] == nil {
			t.Errorf("family %s missing from /metrics", name)
		}
	}

	value := func(name string, labels map[string]string) (float64, bool) {
		f := fams[strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")]
		if f == nil {
			return 0, false
		}
	samples:
		for _, s := range f.Samples {
			if s.Name != name {
				continue
			}
			for k, v := range labels {
				if s.Labels[k] != v {
					continue samples
				}
			}
			return s.Value, true
		}
		return 0, false
	}
	if v, ok := value("lemp_http_requests_total", map[string]string{"endpoint": "topk", "status": "200"}); !ok || v != 2 {
		t.Errorf("topk 200 count = %v (ok=%v), want 2", v, ok)
	}
	if v, ok := value("lemp_http_requests_total", map[string]string{"endpoint": "topk", "status": "400"}); !ok || v != 1 {
		t.Errorf("topk 400 count = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := value("lemp_http_requests_total", map[string]string{"endpoint": "update", "status": "200"}); !ok || v != 1 {
		t.Errorf("update 200 count = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := value("lemp_core_candidates_total", nil); !ok || v <= 0 {
		t.Errorf("core candidates = %v (ok=%v), want > 0", v, ok)
	}
	if v, ok := value("lemp_batch_rows_sum", nil); !ok || v != 6 {
		t.Errorf("batch rows = %v (ok=%v), want 6: the repeat must retrieve again", v, ok)
	}
	if v, ok := value("lemp_epoch", nil); !ok || v != 1 {
		t.Errorf("lemp_epoch = %v (ok=%v), want 1 after one update", v, ok)
	}
	for _, gone := range []string{"lemp_shards", "lemp_shard_scan_seconds", "lemp_merge_seconds", "lemp_shards_scanned_total", "lemp_placement_cost_skew"} {
		if fams[gone] != nil {
			t.Errorf("/metrics still exports %s, a family of the shards a server no longer has", gone)
		}
	}
	for _, gone := range []string{"lemp_index_list_bytes", "lemp_core_tunings_total", "lemp_core_tune_cache_hits_total", "lemp_core_tune_seconds_total"} {
		if fams[gone] != nil {
			t.Errorf("/metrics still exports %s, which reads 0 on a server that never tunes", gone)
		}
	}
	if v, ok := value("lemp_request_duration_seconds_count", map[string]string{"endpoint": "topk"}); !ok || v == 0 {
		t.Errorf("request duration histogram recorded nothing")
	}
	if f := fams["lemp_update_apply_seconds"]; f != nil {
		for _, s := range f.Samples {
			if s.Name == "lemp_update_apply_seconds_count" && s.Value != 1 {
				t.Errorf("update apply histogram holds %v observations, want 1: one per committed batch", s.Value)
			}
		}
	}
}

// TestCoreCountersMatchStats: after mixed traffic (top-k, Above-θ, an update
// between them, quantized screening on), each lemp_core_* and lemp_quant_*
// counter family must equal its /stats "core" / "quant" field exactly — both
// read the same cumulative stats.
func TestCoreCountersMatchStats(t *testing.T) {
	srv, h, _ := obsServer(t, Config{Options: lemp.Options{Parallelism: 1, Quantize: true}})
	dim := srv.Sharded().R()
	above := strings.Replace(strings.Replace(topKBody(t, dim, 4, 1), `"k":1`, `"theta":0.05`, 1), "0.1", "0.3", -1)
	for _, req := range [][2]string{
		{"/v1/topk", topKBody(t, dim, 3, 5)},
		{"/v1/above", above},
		{"/v1/update", `{"updates":[{"op":"remove","id":0},{"op":"remove","id":5}]}`},
		{"/v1/topk", topKBody(t, dim, 16, 10)},
		{"/v1/above", above},
	} {
		if w := doJSON(t, h, "POST", req[0], req[1]); w.Code != 200 {
			t.Fatalf("%s = %d: %s", req[0], w.Code, w.Body.String())
		}
	}
	fams, err := obs.ParseExposition(strings.NewReader(doJSON(t, h, "GET", "/metrics", "").Body.String()))
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.Unmarshal(doJSON(t, h, "GET", "/stats", "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Core.Candidates == 0 || st.Core.Results == 0 || st.Quant.Screened+st.Quant.Survivors == 0 {
		t.Fatalf("traffic left core %+v quant %+v: want candidates, results and screened ones", st.Core, st.Quant)
	}
	for name, want := range map[string]float64{
		"lemp_core_candidates_total":      float64(st.Core.Candidates),
		"lemp_core_results_total":         float64(st.Core.Results),
		"lemp_core_block_verified_total":  float64(st.Core.BlockVerified),
		"lemp_core_scalar_verified_total": float64(st.Core.ScalarVerified),
		"lemp_core_processed_pairs_total": float64(st.Core.ProcessedPairs),
		"lemp_core_pruned_pairs_total":    float64(st.Core.PrunedPairs),
		"lemp_core_scan_seconds_total":    st.Core.RetrievalTime.Seconds(),
		"lemp_quant_screened_total":       float64(st.Quant.Screened),
		"lemp_quant_survivors_total":      float64(st.Quant.Survivors),
	} {
		f := fams[name]
		if f == nil || len(f.Samples) != 1 {
			t.Errorf("%s: family missing or not one sample", name)
			continue
		}
		if got := f.Samples[0].Value; got != want {
			t.Errorf("%s = %v, /stats has %v", name, got, want)
		}
	}
}

// TestBatchCountsMatchHistogram: /stats batches and batch_rows read the
// lemp_batch_rows histogram, so after sequential requests and three
// concurrent ones held in flight together they equal its count and sum: one
// retrieval call per request.
func TestBatchCountsMatchHistogram(t *testing.T) {
	srv, h, _ := obsServer(t, Config{Options: lemp.Options{Parallelism: 1}})
	dim := srv.Sharded().R()
	post := func(rows int) {
		if w := doJSON(t, h, "POST", "/v1/topk", topKBody(t, dim, rows, 5)); w.Code != 200 {
			t.Errorf("topk = %d: %s", w.Code, w.Body.String())
		}
	}
	// Two sequential requests, then three in flight at once.
	post(3)
	post(1)
	held := holdCalls(t, srv.batcher, 3)
	var wg sync.WaitGroup
	for _, rows := range []int{2, 1, 4} {
		wg.Add(1)
		go func() { defer wg.Done(); post(rows) }()
	}
	held.await(t, 3)
	held.release()
	wg.Wait()

	fams, err := obs.ParseExposition(strings.NewReader(doJSON(t, h, "GET", "/metrics", "").Body.String()))
	if err != nil {
		t.Fatal(err)
	}
	hist := map[string]float64{}
	for _, sm := range fams["lemp_batch_rows"].Samples {
		hist[sm.Name] = sm.Value
	}
	var st statsResponse
	if err := json.Unmarshal(doJSON(t, h, "GET", "/stats", "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Batches != 5 || st.BatchRows != 11 || st.AvgBatchRows != 2.2 {
		t.Errorf("/stats batches %d, batch_rows %d, avg_batch_rows %v, want 5, 11, 2.2", st.Batches, st.BatchRows, st.AvgBatchRows)
	}
	if float64(st.Batches) != hist["lemp_batch_rows_count"] || float64(st.BatchRows) != hist["lemp_batch_rows_sum"] {
		t.Errorf("/stats batches %d, batch_rows %d; lemp_batch_rows count %v, sum %v", st.Batches, st.BatchRows, hist["lemp_batch_rows_count"], hist["lemp_batch_rows_sum"])
	}
}

// TestTraceHeaderAndRing checks the per-request trace contract: retrieval
// responses carry X-Lemp-Trace, and with SampleRate 1 the same id is
// retrievable from GET /debug/traces with the span tree intact. A request
// retrieves on its handler goroutine into its own trace, so the executor's
// scan span hangs directly under the request's root span, with no batch,
// shard or merge span in between.
func TestTraceHeaderAndRing(t *testing.T) {
	t.Run("no coalescing", func(t *testing.T) {
		srv, h, _ := obsServer(t, Config{
			Options:         lemp.Options{Parallelism: 1},
			TraceSampleRate: 1,
		})
		dim := srv.Sharded().R()

		w := doJSON(t, h, "POST", "/v1/topk", topKBody(t, dim, 2, 5))
		if w.Code != 200 {
			t.Fatalf("topk = %d: %s", w.Code, w.Body.String())
		}
		id := w.Header().Get("X-Lemp-Trace")
		if len(id) != 16 {
			t.Fatalf("X-Lemp-Trace = %q, want 16 hex digits", id)
		}
		// Probe endpoints are untraced: no header, no ring entry.
		if hdr := doJSON(t, h, "GET", "/healthz", "").Header().Get("X-Lemp-Trace"); hdr != "" {
			t.Fatalf("/healthz carries a trace header %q", hdr)
		}

		tw := doJSON(t, h, "GET", "/debug/traces", "")
		if tw.Code != 200 {
			t.Fatalf("/debug/traces = %d", tw.Code)
		}
		var resp struct {
			Traces []*obs.TraceSnapshot `json:"traces"`
		}
		if err := json.Unmarshal(tw.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Traces) != 1 {
			t.Fatalf("ring holds %d traces, want 1", len(resp.Traces))
		}
		snap := resp.Traces[0]
		if snap.TraceID != id {
			t.Fatalf("ring trace id %s != header %s", snap.TraceID, id)
		}
		if snap.Kind != "topk" || snap.Rows != 2 {
			t.Fatalf("trace meta = kind %q rows %d, want topk/2", snap.Kind, snap.Rows)
		}
		names := map[string]int{}
		byID := map[int32]obs.SpanSnapshot{}
		for _, sp := range snap.Spans {
			byID[sp.ID] = sp
		}
		for _, sp := range snap.Spans {
			names[sp.Name]++
			if sp.Name == "scan" && byID[sp.Parent].Name != "topk" {
				t.Errorf("span scan hangs under %q, want the request's topk root", byID[sp.Parent].Name)
			}
		}
		for _, want := range []string{"topk", "scan"} {
			if names[want] == 0 {
				t.Errorf("span %q missing from trace (have %v)", want, names)
			}
		}
		if n := names["batch.wait"] + names["batch.retrieve"] + names["shard"] + names["merge"]; n != 0 {
			t.Errorf("trace carries batch, shard or merge spans: %v", names)
		}
	})
}

// TestSlowQueryLog forces every request over the slow threshold and checks
// the three-way agreement the debugging workflow depends on: the response
// header, the slow-query log record, and the retained trace all name the
// same trace id.
func TestSlowQueryLog(t *testing.T) {
	srv, h, sink := obsServer(t, Config{
		Options:            lemp.Options{Parallelism: 1},
		SlowQueryThreshold: time.Nanosecond, // everything is slow
	})
	dim := srv.Sharded().R()

	w := doJSON(t, h, "POST", "/v1/topk", topKBody(t, dim, 2, 5))
	if w.Code != 200 {
		t.Fatalf("topk = %d: %s", w.Code, w.Body.String())
	}
	id := w.Header().Get("X-Lemp-Trace")

	rec := sink.find(t, "slow query")
	if rec == nil {
		t.Fatalf("no slow-query record in log:\n%s", sink.buf.String())
	}
	if rec["level"] != "WARN" {
		t.Errorf("slow query logged at %v, want WARN", rec["level"])
	}
	if rec["trace"] != id {
		t.Errorf("slow-query trace = %v, header = %s", rec["trace"], id)
	}
	if rec["endpoint"] != "topk" || rec["rows"] != float64(2) {
		t.Errorf("slow-query record wrong: %v", rec)
	}
	if rec["scan_ns"] == nil {
		t.Errorf("slow-query record missing scan_ns: %v", rec)
	}
	// The server's LENGTH index never tunes, so no record sums a tune phase.
	for _, gone := range []string{"tune_ns", "batch_wait_ns", "merge_ns", "shards", "tunings", "tune_cache_hits"} {
		if _, ok := rec[gone]; ok {
			t.Errorf("slow-query record still reports %s: %v", gone, rec)
		}
	}

	// Slow requests are retained even at sample rate 0.
	var resp struct {
		Traces []*obs.TraceSnapshot `json:"traces"`
	}
	tw := doJSON(t, h, "GET", "/debug/traces", "")
	if err := json.Unmarshal(tw.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Traces) != 1 || resp.Traces[0].TraceID != id || !resp.Traces[0].Slow {
		t.Fatalf("slow trace not retained correctly: %+v", resp.Traces)
	}

	// The slow-query counter moved.
	mw := doJSON(t, h, "GET", "/metrics", "")
	fams, err := obs.ParseExposition(strings.NewReader(mw.Body.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fams["lemp_slow_queries_total"].Samples {
		if s.Value < 1 {
			t.Errorf("lemp_slow_queries_total = %v, want >= 1", s.Value)
		}
	}
}

// TestReadyzLifecycle pins the readiness contract: ready on construction,
// 503 "draining" permanently after BeginDrain — while /healthz stays 200
// throughout.
func TestReadyzLifecycle(t *testing.T) {
	srv, h, sink := obsServer(t, Config{Options: lemp.Options{Parallelism: 1}})

	status := func() (int, string) {
		w := doJSON(t, h, "GET", "/readyz", "")
		var body struct {
			Status string `json:"status"`
		}
		json.Unmarshal(w.Body.Bytes(), &body)
		return w.Code, body.Status
	}
	if code, st := status(); code != 200 || st != "ready" {
		t.Fatalf("initial readyz = %d %q, want 200 ready", code, st)
	}
	srv.BeginDrain()
	srv.BeginDrain() // idempotent
	if code, st := status(); code != 503 || st != "draining" {
		t.Fatalf("draining readyz = %d %q, want 503 draining", code, st)
	}
	if w := doJSON(t, h, "GET", "/healthz", ""); w.Code != 200 {
		t.Fatalf("healthz during drain = %d, want 200", w.Code)
	}
	if rec := sink.find(t, "draining"); rec == nil {
		t.Fatal("BeginDrain logged no lifecycle event")
	}
	// lemp_ready reflects the drain.
	mw := doJSON(t, h, "GET", "/metrics", "")
	fams, err := obs.ParseExposition(strings.NewReader(mw.Body.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v := fams["lemp_ready"].Samples[0].Value; v != 0 {
		t.Fatalf("lemp_ready = %v while draining, want 0", v)
	}
}

// TestAccessLog checks every request emits a debug-level access record with
// the fields an operator greps for.
func TestAccessLog(t *testing.T) {
	srv, h, sink := obsServer(t, Config{Options: lemp.Options{Parallelism: 1}})
	dim := srv.Sharded().R()
	w := doJSON(t, h, "POST", "/v1/topk", topKBody(t, dim, 1, 3))
	if w.Code != 200 {
		t.Fatalf("topk = %d", w.Code)
	}
	rec := sink.find(t, "request")
	if rec == nil {
		t.Fatalf("no access record in log:\n%s", sink.buf.String())
	}
	if rec["method"] != "POST" || rec["path"] != "/v1/topk" || rec["status"] != float64(200) {
		t.Errorf("access record wrong: %v", rec)
	}
	if rec["trace"] != w.Header().Get("X-Lemp-Trace") {
		t.Errorf("access trace = %v, header = %q", rec["trace"], w.Header().Get("X-Lemp-Trace"))
	}
	if b, ok := rec["bytes"].(float64); !ok || b <= 0 {
		t.Errorf("access bytes = %v, want > 0", rec["bytes"])
	}
	if rec["duration"] == nil {
		t.Errorf("access record missing duration: %v", rec)
	}
}

// TestStatsDurations checks /stats serves its durations as integer
// nanoseconds only: retrieval_ns counts the query's scans, prep_ns is the
// index's build time, and no human-readable duration string is left.
func TestStatsDurations(t *testing.T) {
	srv, h, _ := obsServer(t, Config{Options: lemp.Options{Parallelism: 1}})
	dim := srv.Sharded().R()
	if w := doJSON(t, h, "POST", "/v1/topk", topKBody(t, dim, 2, 5)); w.Code != 200 {
		t.Fatalf("topk = %d", w.Code)
	}
	w := doJSON(t, h, "GET", "/stats", "")
	if w.Code != 200 {
		t.Fatalf("/stats = %d", w.Code)
	}
	var st struct {
		Core map[string]any `json:"core"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	ns := func(key string) int64 {
		t.Helper()
		v, ok := st.Core[key].(float64)
		if !ok || v != math.Trunc(v) {
			t.Fatalf("core.%s = %v, want an integer of nanoseconds", key, st.Core[key])
		}
		return int64(v)
	}
	if got := ns("retrieval_ns"); got <= 0 {
		t.Fatalf("retrieval_ns = %d, want > 0 after a query", got)
	}
	ns("tune_ns")
	var prep time.Duration
	for _, ix := range srv.Sharded().Indexes() {
		prep += ix.PrepTime()
	}
	if got := ns("prep_ns"); got != prep.Nanoseconds() {
		t.Fatalf("prep_ns = %d, the index's PrepTime is %d", got, prep.Nanoseconds())
	}
	for _, key := range []string{"prep", "tune", "retrieval"} {
		if v, ok := st.Core[key]; ok {
			t.Errorf("core.%s = %v: durations are served as _ns integers only", key, v)
		}
	}
}

// TestStatsIndexStateFollowsShards: /stats buckets and prep_ns describe the
// index version serving when /stats is read — before any query, and after a
// batch that removes most of the catalog and compacts the index.
func TestStatsIndexStateFollowsShards(t *testing.T) {
	srv, h, _ := obsServer(t, Config{Options: lemp.Options{Parallelism: 1}})
	check := func(when string) {
		t.Helper()
		var st statsResponse
		if err := json.Unmarshal(doJSON(t, h, "GET", "/stats", "").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		var buckets int
		var prep time.Duration
		for _, ix := range srv.Sharded().Indexes() {
			buckets += ix.NumBuckets()
			prep += ix.PrepTime()
		}
		if buckets == 0 || prep <= 0 {
			t.Fatalf("%s: the index holds %d buckets built in %v", when, buckets, prep)
		}
		if st.Core.Buckets != buckets || st.Core.PrepNS != prep.Nanoseconds() {
			t.Errorf("%s: /stats buckets %d, prep_ns %d; the index holds %d, %d",
				when, st.Core.Buckets, st.Core.PrepNS, buckets, prep.Nanoseconds())
		}
	}
	check("before any query")

	dim := srv.Sharded().R()
	if w := doJSON(t, h, "POST", "/v1/topk", topKBody(t, dim, 4, 5)); w.Code != 200 {
		t.Fatalf("topk = %d: %s", w.Code, w.Body.String())
	}
	check("after a query")

	var ups strings.Builder
	ups.WriteString(`{"updates":[`)
	for id := range 3 * srv.Sharded().N() / 4 {
		if id > 0 {
			ups.WriteByte(',')
		}
		fmt.Fprintf(&ups, `{"op":"remove","id":%d}`, id)
	}
	ups.WriteString(`]}`)
	if w := doJSON(t, h, "POST", "/v1/update", ups.String()); w.Code != 200 {
		t.Fatalf("update = %d: %s", w.Code, w.Body.String())
	}
	if srv.Sharded().Compactions() == 0 {
		t.Fatal("removing three quarters of the catalog compacted nothing")
	}
	check("after the shrinking batch")
	if w := doJSON(t, h, "POST", "/v1/topk", topKBody(t, dim, 4, 5)); w.Code != 200 {
		t.Fatalf("topk = %d: %s", w.Code, w.Body.String())
	}
	check("after a query on the shrunk index")
}

// TestPprofGate checks the profiling endpoints are mounted only on opt-in.
func TestPprofGate(t *testing.T) {
	_, off, _ := obsServer(t, Config{Options: lemp.Options{Parallelism: 1}})
	if w := doJSON(t, off, "GET", "/debug/pprof/", ""); w.Code == 200 {
		t.Fatal("pprof served without EnablePprof")
	}
	_, on, _ := obsServer(t, Config{Options: lemp.Options{Parallelism: 1}, EnablePprof: true})
	if w := doJSON(t, on, "GET", "/debug/pprof/", ""); w.Code != 200 {
		t.Fatalf("pprof index = %d with EnablePprof, want 200", w.Code)
	}
}
