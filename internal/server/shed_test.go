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
// shed tests steer on batcher queue depth and the in-flight gauge).
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
	buf, err := json.Marshal(topKRequest{Queries: [][]float64{query}, K: k})
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
// request's status. Requests on its key then wait in a forming batch.
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

// TestShedQueueRows drives the batch queue to the configured depth and
// checks that the next request is rejected with 429 + Retry-After before
// enqueueing, that shedding stops once the queue drains, and that the
// /stats shed block reports it all.
func TestShedQueueRows(t *testing.T) {
	cfg := testConfig()
	cfg.BatchWindow = 10 * time.Second // only the held retrieval's completion fires the queue
	cfg.BatchMax = 1024
	cfg.ShedQueueRows = 4
	cfg.ShedInflight = -1
	srv, ts, q := newShedServer(t, cfg)
	release, first := holdFirstRequest(t, srv, ts.URL, q.Vec(0))

	// Park requests in the forming batch behind the held retrieval one at a
	// time so the queue depth at each admission check is deterministic.
	const parked = 4
	results := make(chan int, parked)
	for i := 1; i <= parked; i++ {
		go func(i int) {
			status, _ := postTopK(t, ts.URL, q.Vec(i), 5)
			results <- status
		}(i)
		awaitPending(t, srv.batcher, int64(i))
	}

	// Queue is at the limit: the next request must shed, not enqueue.
	status, retryAfter := postTopK(t, ts.URL, q.Vec(parked+1), 5)
	if status != http.StatusTooManyRequests {
		t.Fatalf("request over queue limit: status %d, want 429", status)
	}
	if retryAfter == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	if n := srv.batcher.PendingRows(); n != parked {
		t.Fatalf("shed request still enqueued: %d pending rows, want %d", n, parked)
	}

	// The held and parked requests must be unaffected.
	release()
	if got := <-first; got != http.StatusOK {
		t.Fatalf("held request returned %d, want 200", got)
	}
	for i := 0; i < parked; i++ {
		if got := <-results; got != http.StatusOK {
			t.Fatalf("parked request returned %d, want 200", got)
		}
	}

	// Drained: shedding stops.
	if status, _ := postTopK(t, ts.URL, q.Vec(parked+2), 5); status != http.StatusOK {
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
