package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lemp"
)

// cancelPaths are two server configurations: without a batch window and
// with one, which Config ignores now that no request coalesces. Under both a
// request retrieves on its handler goroutine under its own context, so a
// cancellation must reach the index scan directly.
var cancelPaths = []struct {
	name   string
	window time.Duration
}{
	{"no coalescing", 0},
	{"idle key", time.Second},
}

// TestClientDisconnectCancelsShardRetrievals is the acceptance criterion:
// an HTTP request whose client disconnects mid-call cancels the underlying
// index retrieval — observed through the scan test hooks — instead of
// running to completion.
func TestClientDisconnectCancelsShardRetrievals(t *testing.T) {
	for _, path := range cancelPaths {
		t.Run(path.name, func(t *testing.T) {
			testClientDisconnect(t, path.window)
		})
	}
}

func testClientDisconnect(t *testing.T, window time.Duration) {
	q, p := smokeMatrices(t)
	srv, err := New(p, Config{Options: lemp.Options{Parallelism: 1}, BatchWindow: window})
	if err != nil {
		t.Fatal(err)
	}

	// Gate the retrieval: it blocks at its start hook until the server-side
	// request context reports the disconnect, so the cancellation is
	// deterministically "mid-call" — dispatched, not yet scanned — and the
	// scan observably starts only after it landed.
	started := make(chan struct{})
	var startOnce sync.Once
	var mu sync.Mutex
	var shardErrs []error
	own := 0 // scans that ran under the request's own context
	sh := srv.Sharded()
	sh.testScanStart = func(ctx context.Context) {
		if requestInfo(ctx) != nil {
			mu.Lock()
			own++
			mu.Unlock()
		}
		startOnce.Do(func() { close(started) })
		<-ctx.Done()
	}
	sh.testScanDone = func(err error) {
		mu.Lock()
		shardErrs = append(shardErrs, err)
		mu.Unlock()
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{"queries": vecs(q, 0, 4), "k": 5})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/topk", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		clientDone <- err
	}()

	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("no retrieval started")
	}
	cancel() // the client disconnects mid-call
	if err := <-clientDone; err == nil {
		t.Fatal("client request succeeded despite cancellation")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(shardErrs)
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the retrieval did not finish")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	canceled := 0
	for _, err := range shardErrs {
		if errors.Is(err, context.Canceled) {
			canceled++
		}
	}
	if canceled != 1 {
		t.Fatalf("the retrieval returned %v, want context.Canceled", shardErrs)
	}
	if own != 1 {
		t.Fatal("the scan did not run under the request's own context: a lone request must not be handed to a dispatched batch")
	}
}

// TestRequestTimeoutAbortsRetrieval checks Config.RequestTimeout flows into
// the index scan: a request whose deadline expires mid-call returns 503 and
// the retrieval observes context.DeadlineExceeded.
func TestRequestTimeoutAbortsRetrieval(t *testing.T) {
	for _, path := range cancelPaths {
		t.Run(path.name, func(t *testing.T) {
			q, p := smokeMatrices(t)
			srv, err := New(p, Config{Options: lemp.Options{Parallelism: 1}, RequestTimeout: 30 * time.Millisecond, BatchWindow: path.window})
			if err != nil {
				t.Fatal(err)
			}
			sh := srv.Sharded()
			// Hold the retrieval until the per-request deadline has expired.
			var mu sync.Mutex
			var shardErrs []error
			sh.testScanStart = func(ctx context.Context) { <-ctx.Done() }
			sh.testScanDone = func(err error) {
				mu.Lock()
				shardErrs = append(shardErrs, err)
				mu.Unlock()
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			body, _ := json.Marshal(map[string]any{"queries": vecs(q, 0, 2), "k": 3})
			resp, err := http.Post(ts.URL+"/v1/topk", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("status %d, want 503 on request timeout", resp.StatusCode)
			}
			// The handler answered after the retrieval returned, so it has
			// reported.
			mu.Lock()
			defer mu.Unlock()
			if len(shardErrs) != 1 || !errors.Is(shardErrs[0], context.DeadlineExceeded) {
				t.Errorf("the retrieval reported %v, want one context.DeadlineExceeded", shardErrs)
			}
		})
	}
}
