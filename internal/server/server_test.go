package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lemp"
	"lemp/internal/data"
)

// smokeMatrices generates the server test fixture: the Smoke profile's
// query and probe matrices.
func smokeMatrices(t testing.TB) (q, p *lemp.Matrix) {
	t.Helper()
	q, p = data.Smoke.Generate()
	return q, p
}

// directIndex builds the unsharded reference index over the same probes.
func directIndex(t testing.TB, p *lemp.Matrix) *lemp.Index {
	t.Helper()
	ix, err := lemp.New(p, lemp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// directTopK and directAboveRows answer on one unsharded index: the reference
// sharded results are compared against, in the serving stack's shape (one row
// per query; Above-θ entries by ascending probe id).
func directTopK(t testing.TB, ix *lemp.Index, q *lemp.Matrix, k int) lemp.TopKRows {
	t.Helper()
	res, err := ix.Retrieve(context.Background(), q, lemp.TopK(k))
	if err != nil {
		t.Fatal(err)
	}
	return res.TopK
}

func directAboveRows(t testing.TB, ix *lemp.Index, q *lemp.Matrix, theta float64) [][]lemp.Entry {
	t.Helper()
	res, err := ix.Retrieve(context.Background(), q, lemp.AboveTheta(theta))
	if err != nil {
		t.Fatal(err)
	}
	lemp.SortEntries(res.Entries)
	rows := make([][]lemp.Entry, q.N())
	for _, e := range res.Entries {
		rows[e.Query] = append(rows[e.Query], e)
	}
	return rows
}

// newTestServer builds a Server over the Smoke probes with 4 shards and
// batching enabled, wrapped in an httptest server.
func newTestServer(t testing.TB, cfg Config) (*httptest.Server, *lemp.Matrix, *lemp.Matrix) {
	t.Helper()
	q, p := smokeMatrices(t)
	srv, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, q, p
}

// postJSON posts body to url and decodes the JSON response into out,
// failing the test on any transport or status error.
func postJSON(t testing.TB, url string, body, out any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: status %d: %v", url, resp.StatusCode, e)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// vecs converts matrix columns [lo, hi) into request rows.
func vecs(m *lemp.Matrix, lo, hi int) [][]float64 {
	out := make([][]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, m.Vec(i))
	}
	return out
}

const testShards = 4

func testConfig() Config {
	return Config{
		Shards:      testShards,
		Options:     lemp.Options{Parallelism: 1},
		BatchWindow: time.Millisecond,
		BatchMax:    64,
	}
}

// TestTopKMatchesDirect posts query batches to a 4-shard batching server
// and requires responses identical — ids and values — to a direct RowTopK
// run on a single unsharded index.
func TestTopKMatchesDirect(t *testing.T) {
	ts, q, p := newTestServer(t, testConfig())
	direct := directIndex(t, p)

	const k, nq = 10, 64
	want := directTopK(t, direct, q.Head(nq), k)

	var resp queryResponse
	postJSON(t, ts.URL+"/v1/topk", topKRequest{Queries: vecs(q, 0, nq), K: k}, &resp)
	if len(resp.Results) != nq {
		t.Fatalf("got %d rows, want %d", len(resp.Results), nq)
	}
	for i, row := range resp.Results {
		if len(row) != len(want[i]) {
			t.Fatalf("query %d: %d entries, want %d", i, len(row), len(want[i]))
		}
		for j, e := range row {
			if e.Probe != want[i][j].Probe || e.Value != want[i][j].Value {
				t.Fatalf("query %d entry %d: got (%d, %v), want (%d, %v)",
					i, j, e.Probe, e.Value, want[i][j].Probe, want[i][j].Value)
			}
		}
	}
}

// TestAboveMatchesDirect does the same for Above-θ: the sharded result set
// per query must match a direct AboveTheta run exactly.
func TestAboveMatchesDirect(t *testing.T) {
	ts, q, p := newTestServer(t, testConfig())
	direct := directIndex(t, p)

	const nq = 64
	theta := 1.5
	want := directAboveRows(t, direct, q.Head(nq), theta)

	var resp queryResponse
	postJSON(t, ts.URL+"/v1/above", aboveRequest{Queries: vecs(q, 0, nq), Theta: theta}, &resp)
	if len(resp.Results) != nq {
		t.Fatalf("got %d rows, want %d", len(resp.Results), nq)
	}
	total := 0
	for i, row := range resp.Results {
		if len(row) != len(want[i]) {
			t.Fatalf("query %d: %d entries, want %d", i, len(row), len(want[i]))
		}
		for j, e := range row {
			if e.Probe != want[i][j].Probe || e.Value != want[i][j].Value {
				t.Fatalf("query %d entry %d: got (%d, %v), want (%d, %v)",
					i, j, e.Probe, e.Value, want[i][j].Probe, want[i][j].Value)
			}
		}
		total += len(row)
	}
	if total == 0 {
		t.Fatal("θ too high: result set empty, test is vacuous")
	}
}

// TestConcurrencySmoke fires 200 in-flight single-query requests at a
// batching server and checks every response against the direct index.
func TestConcurrencySmoke(t *testing.T) {
	ts, q, p := newTestServer(t, testConfig())
	direct := directIndex(t, p)

	const k, inflight = 5, 200
	want := directTopK(t, direct, q.Head(inflight), k)

	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf, _ := json.Marshal(topKRequest{Queries: [][]float64{q.Vec(i)}, K: k})
			resp, err := http.Post(ts.URL+"/v1/topk", "application/json", bytes.NewReader(buf))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("query %d: status %d", i, resp.StatusCode)
				return
			}
			var out queryResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if len(out.Results) != 1 || len(out.Results[0]) != len(want[i]) {
				errs <- fmt.Errorf("query %d: bad shape %v", i, out.Results)
				return
			}
			for j, e := range out.Results[0] {
				if e.Probe != want[i][j].Probe || e.Value != want[i][j].Value {
					errs <- fmt.Errorf("query %d entry %d: got (%d, %v), want (%d, %v)",
						i, j, e.Probe, e.Value, want[i][j].Probe, want[i][j].Value)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHandlerMatchesViewAndDirect is the one-body claim as an assertion:
// every (k | θ) × {1, 7 rows} request through Handler() answers, entry for
// entry, what View.TopKCtx / AboveThetaCtx answer on the same view and what
// one unsharded index does.
func TestHandlerMatchesViewAndDirect(t *testing.T) {
	q, p := smokeMatrices(t)
	srv, err := New(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	direct, view, h := directIndex(t, p), srv.Sharded().CurrentView(), srv.Handler()
	post := func(path string, body any) [][]lemp.Entry {
		buf, _ := json.Marshal(body)
		rec := doJSON(t, h, "POST", path, string(buf))
		var resp queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("POST %s: status %d, %v: %s", path, rec.Code, err, rec.Body)
		}
		rows := make([][]lemp.Entry, len(resp.Results))
		for i, row := range resp.Results {
			for _, e := range row {
				rows[i] = append(rows[i], lemp.Entry{Query: i, Probe: e.Probe, Value: e.Value})
			}
		}
		return rows
	}
	for _, nq := range []int{1, 7} {
		qs := q.Head(nq)
		for _, k := range []int{1, 10, 50} {
			name := fmt.Sprintf("k=%d rows=%d", k, nq)
			got := post("/v1/topk", topKRequest{Queries: vecs(q, 0, nq), K: k})
			fromView, _, err := view.TopKCtx(context.Background(), qs, k)
			if err != nil {
				t.Fatal(err)
			}
			compareRows(t, name+" handler vs view", got, fromView)
			compareRows(t, name+" handler vs direct", got, directTopK(t, direct, qs, k))
		}
		for _, theta := range []float64{1, 1.5, 2.5} {
			name := fmt.Sprintf("theta=%v rows=%d", theta, nq)
			got := post("/v1/above", aboveRequest{Queries: vecs(q, 0, nq), Theta: theta})
			fromView, _, err := view.AboveThetaCtx(context.Background(), qs, theta)
			if err != nil {
				t.Fatal(err)
			}
			compareRows(t, name+" handler vs view", got, fromView)
			compareRows(t, name+" handler vs direct", got, directAboveRows(t, direct, qs, theta))
		}
	}
}

// TestHealthzAndStats checks the observability endpoints.
func TestHealthzAndStats(t *testing.T) {
	ts, q, p := newTestServer(t, testConfig())

	var hz healthzResponse
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "ok" || hz.Probes != p.N() || hz.Shards != testShards || hz.Dim != p.R() {
		t.Fatalf("healthz: %+v", hz)
	}

	var resp queryResponse
	postJSON(t, ts.URL+"/v1/topk", topKRequest{Queries: vecs(q, 0, 4), K: 2}, &resp)
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Requests != 1 || st.Batches == 0 || st.BatchRows != 4 {
		t.Errorf("stats counters: %+v", st)
	}
	if st.Core.Queries != 4 || st.Core.Results == 0 || st.Core.Buckets == 0 {
		t.Errorf("core stats not accumulated: %+v", st.Core)
	}
	if st.Kernels != "avx2" && st.Kernels != "portable" {
		t.Errorf("stats kernels = %q, want avx2 or portable", st.Kernels)
	}
}

// TestOverflowingQueryRefusedAlone checks the library's query rule at the
// HTTP door: a row of finite coordinates whose length overflows (1e200s) is
// a 400 naming the row on /v1/topk and /v1/above, and it is refused before
// it joins a batch, so a batch-mate parked in the forming batch it would
// have joined still gets its 200.
func TestOverflowingQueryRefusedAlone(t *testing.T) {
	cfg := testConfig()
	cfg.BatchWindow = 10 * time.Second // only the held retrieval's completion fires the forming batch
	srv, ts, q := newShedServer(t, cfg)
	huge := make([]float64, q.R())
	for f := range huge {
		huge[f] = 1e200
	}
	release, first := holdFirstRequest(t, srv, ts.URL, q.Vec(0))
	mate := make(chan int, 1)
	go func() {
		status, _ := postTopK(t, ts.URL, q.Vec(1), 5)
		mate <- status
	}()
	awaitPending(t, srv.batcher, 1)
	for _, tc := range []struct {
		path, want string
		body       any
	}{
		{"/v1/topk", "query 1: length is +Inf", topKRequest{Queries: [][]float64{q.Vec(2), huge}, K: 5}},
		{"/v1/above", "query 0: length is +Inf", aboveRequest{Queries: [][]float64{huge}, Theta: 0.5}},
	} {
		buf, _ := json.Marshal(tc.body)
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tc.want) {
			t.Errorf("POST %s: status %d (%s), want a 400 naming %q", tc.path, resp.StatusCode, msg, tc.want)
		}
	}
	if n := srv.batcher.PendingRows(); n != 1 {
		t.Errorf("forming batch holds %d rows after the refusals, want the batch-mate's 1", n)
	}
	release()
	if got := <-first; got != http.StatusOK {
		t.Errorf("held request returned %d, want 200", got)
	}
	if got := <-mate; got != http.StatusOK {
		t.Errorf("batch-mate returned %d, want 200", got)
	}
}

// TestBadRequests checks input validation.
func TestBadRequests(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 1 << 14
	ts, q, _ := newTestServer(t, cfg)
	post := func(path string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/topk", topKRequest{Queries: vecs(q, 0, 1), K: 0}},
		{"/v1/topk", topKRequest{Queries: [][]float64{{1, 2}}, K: 3}},
		{"/v1/above", aboveRequest{Queries: vecs(q, 0, 1), Theta: 0}},
		{"/v1/above", aboveRequest{Queries: [][]float64{{1}}, Theta: 1}},
	} {
		buf, _ := json.Marshal(tc.body)
		if code, msg := post(tc.path, buf); code != http.StatusBadRequest {
			t.Errorf("POST %s %v: status %d (%s), want 400", tc.path, tc.body, code, msg)
		}
	}

	// Malformed bodies around a valid one: everything outside the object is
	// refused, as json.Unmarshal refuses it, and so are a fractional k, an
	// out-of-range coordinate, a queries object and an unterminated array.
	row, _ := json.Marshal(q.Vec(0))
	valid := `{"queries":[` + string(row) + `],"k":10}`
	if code, msg := post("/v1/topk", []byte(valid)); code != http.StatusOK {
		t.Fatalf("valid body: status %d (%s)", code, msg)
	}
	for _, body := range []string{
		valid + `garbage`,
		valid + valid,
		valid + ` {}`,
		`{"queries":[` + string(row) + `],"k":1.5}`,
		`{"queries":[[1e400` + string(row[bytes.IndexByte(row, ','):]) + `],"k":10}`,
		`{"queries":{},"k":10}`,
		`{"queries":[` + string(row[:len(row)-1]) + `,"k":10}`,
		`{"queries":[` + string(row),
	} {
		if code, msg := post("/v1/topk", []byte(body)); code != http.StatusBadRequest || !strings.Contains(msg, "decoding request") {
			t.Errorf("POST /v1/topk %.60s...: status %d (%s), want a 400 decoding error", body, code, msg)
		}
	}

	// Update bodies are read and refused the same way: trailing data, a
	// second object and an over-limit body each leave the epoch at 0.
	update := `{"updates":[{"op":"remove","id":3}]}`
	for _, tc := range []struct {
		body string
		code int
	}{
		{update + `garbage`, http.StatusBadRequest},
		{update + update, http.StatusBadRequest},
		{`{"updates":[{"op":"remove","id":3}` + strings.Repeat(`,{"op":"remove","id":3}`, 1<<10) + `]}`, http.StatusRequestEntityTooLarge},
	} {
		if code, msg := post("/v1/update", []byte(tc.body)); code != tc.code {
			t.Errorf("POST /v1/update %.60s...: status %d (%s), want %d", tc.body, code, msg, tc.code)
		}
		var hz healthzResponse
		getJSON(t, ts.URL+"/healthz", &hz)
		if hz.Epoch != 0 {
			t.Fatalf("POST /v1/update %.60s...: epoch %d, want 0", tc.body, hz.Epoch)
		}
	}
}

// TestRequestGuards checks that oversized k values are clamped rather than
// sizing buffers off user input, and oversized bodies are rejected early.
func TestRequestGuards(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 4096
	ts, q, p := newTestServer(t, cfg)

	// k far beyond the probe count returns every probe, ranked.
	var resp queryResponse
	postJSON(t, ts.URL+"/v1/topk", topKRequest{Queries: vecs(q, 0, 1), K: 1 << 40}, &resp)
	if len(resp.Results) != 1 || len(resp.Results[0]) != p.N() {
		t.Fatalf("huge k: got %d entries, want %d", len(resp.Results[0]), p.N())
	}

	// A body over the limit is rejected with 413.
	big := topKRequest{Queries: vecs(q, 0, 64), K: 3}
	buf, _ := json.Marshal(big)
	if len(buf) <= 4096 {
		t.Fatalf("test body too small (%d bytes) to exercise the limit", len(buf))
	}
	r, err := http.Post(ts.URL+"/v1/topk", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", r.StatusCode)
	}

	// A query whose inner products would overflow to ±Inf has a length that
	// overflows first: it is refused as a bad request, before retrieval,
	// instead of failing the response encoding with a 500 (values JSON
	// cannot spell stay an encoding error: TestAppendResultsMatchesMarshal).
	huge := make([]float64, p.R())
	for i := range huge {
		huge[i] = 1e308
	}
	buf, _ = json.Marshal(topKRequest{Queries: [][]float64{huge}, K: 1})
	r, err = http.Post(ts.URL+"/v1/topk", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "query 0: length is +Inf") {
		t.Fatalf("overflowing query: status %d (%s), want a 400 naming query 0", r.StatusCode, msg)
	}
}

// getJSON fetches url and decodes the response into out.
func getJSON(t testing.TB, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
