package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lemp"
)

// newShedServer builds a server with direct access to the *Server (the
// shed tests steer on the rows in flight and the in-flight gauge).
func newShedServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *lemp.Matrix) {
	t.Helper()
	q, p := smokeMatrices(t)
	srv, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, q
}

// postTopK posts a single-query top-k request and returns the status code
// and the Retry-After header.
func postTopK(t *testing.T, url string, query []float64, k int) (int, string) {
	t.Helper()
	return postTopKRows(t, url, [][]float64{query}, k)
}

// postTopKRows is postTopK for a request of several query rows.
func postTopKRows(t *testing.T, url string, queries [][]float64, k int) (int, string) {
	t.Helper()
	buf, err := json.Marshal(topKRequest{Queries: queries, K: k})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/topk", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// shedStats is the /stats admission-control block.
type shedStats struct {
	Shed struct {
		QueueRowsLimit int    `json:"queue_rows_limit"`
		InflightLimit  int    `json:"inflight_limit"`
		ShedTotal      uint64 `json:"shed_total"`
		QueueRows      int64  `json:"queue_rows"`
	} `json:"shed"`
}

func getShedStats(t *testing.T, url string) shedStats {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st shedStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// holdFirstRequest posts a request whose retrieval call holds until release,
// and returns once the call has started, with a channel that yields the
// request's status.
func holdFirstRequest(t *testing.T, srv *Server, url string, query []float64) (release func(), status <-chan int) {
	t.Helper()
	held := holdCalls(t, srv.batcher, 1)
	first := make(chan int, 1)
	go func() {
		code, _ := postTopK(t, url, query, 5)
		first <- code
	}()
	held.await(t, 1)
	return held.release, first
}

// TestShedQueueRows holds requests in flight until their query rows reach
// the configured bound — a three-row request and a one-row one — and checks
// that the next request is rejected with 429 and Retry-After 1 before its
// rows count, that shedding stops once the held requests are answered, and
// that the /stats shed block reports it all.
func TestShedQueueRows(t *testing.T) {
	cfg := testConfig()
	cfg.ShedQueueRows = 4
	cfg.ShedInflight = -1
	srv, ts, q := newShedServer(t, cfg)
	held := holdCalls(t, srv.batcher, 2)

	// Admit the held requests one at a time so the rows in flight at each
	// admission check are deterministic: 0, then 3.
	results := make(chan int, 2)
	for i, rows := range [][2]int{{0, 3}, {3, 4}} {
		go func() {
			status, _ := postTopKRows(t, ts.URL, vecs(q, rows[0], rows[1]), 5)
			results <- status
		}()
		held.await(t, i+1)
	}
	if n := srv.batcher.RowsInFlight(); n != 4 {
		t.Fatalf("%d rows in flight, want the held requests' 4", n)
	}

	// The rows in flight are at the limit: the next request must shed.
	status, retryAfter := postTopK(t, ts.URL, q.Vec(5), 5)
	if status != http.StatusTooManyRequests {
		t.Fatalf("request over the rows-in-flight limit: status %d, want 429", status)
	}
	if retryAfter != "1" {
		t.Fatalf("429 response Retry-After = %q, want 1", retryAfter)
	}
	if n := srv.batcher.RowsInFlight(); n != 4 {
		t.Fatalf("shed request counted in flight: %d rows, want 4", n)
	}
	if st := getShedStats(t, ts.URL); st.Shed.QueueRows != 4 {
		t.Errorf("stats queue_rows = %d while held, want 4", st.Shed.QueueRows)
	}

	// The held requests must be unaffected.
	held.release()
	for range 2 {
		if got := <-results; got != http.StatusOK {
			t.Fatalf("held request returned %d, want 200", got)
		}
	}

	// Answered: their rows left flight before their responses were written,
	// so shedding stops.
	if status, _ := postTopK(t, ts.URL, q.Vec(6), 5); status != http.StatusOK {
		t.Fatalf("request after drain: status %d, want 200", status)
	}

	st := getShedStats(t, ts.URL)
	if st.Shed.QueueRowsLimit != 4 {
		t.Errorf("stats queue_rows_limit = %d, want 4", st.Shed.QueueRowsLimit)
	}
	if st.Shed.InflightLimit != 0 {
		t.Errorf("stats inflight_limit = %d, want 0 (disabled)", st.Shed.InflightLimit)
	}
	if st.Shed.ShedTotal != 1 {
		t.Errorf("stats shed_total = %d, want 1", st.Shed.ShedTotal)
	}
	if st.Shed.QueueRows != 0 {
		t.Errorf("stats queue_rows = %d after drain, want 0", st.Shed.QueueRows)
	}
}

// TestShedInflight checks the in-flight limit: with ShedInflight=1, a
// second concurrent retrieval sheds while the first is still being served,
// and admission reopens once it finishes.
func TestShedInflight(t *testing.T) {
	cfg := testConfig()
	cfg.ShedQueueRows = -1
	cfg.ShedInflight = 1
	srv, ts, q := newShedServer(t, cfg)
	release, first := holdFirstRequest(t, srv, ts.URL, q.Vec(0))

	if status, _ := postTopK(t, ts.URL, q.Vec(1), 5); status != http.StatusTooManyRequests {
		t.Fatalf("second in-flight request: status %d, want 429", status)
	}
	release()
	if got := <-first; got != http.StatusOK {
		t.Fatalf("first request returned %d, want 200", got)
	}

	// Wait for the in-flight gauge to settle (instrument decrements after
	// the response is written), then a fresh request must be admitted.
	deadline := time.Now().Add(5 * time.Second)
	for srv.metrics.inFlight.Value() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight gauge stuck at %v", srv.metrics.inFlight.Value())
		}
		time.Sleep(200 * time.Microsecond)
	}
	if status, _ := postTopK(t, ts.URL, q.Vec(2), 5); status != http.StatusOK {
		t.Fatalf("request after drain: status %d, want 200", status)
	}
	if st := getShedStats(t, ts.URL); st.Shed.ShedTotal != 1 {
		t.Errorf("stats shed_total = %d, want 1", st.Shed.ShedTotal)
	}
}
