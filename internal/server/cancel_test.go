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
// cancellation must reach the shard scans directly.
var cancelPaths = []struct {
	name   string
	window time.Duration
}{
	{"no coalescing", 0},
	{"idle key", time.Second},
}

// TestClientDisconnectCancelsShardRetrievals is the acceptance criterion:
// an HTTP request whose client disconnects mid-batch cancels the underlying
// shard retrievals — observed through the shard test hooks — instead of
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
	srv, err := New(p, Config{Shards: testShards, Options: lemp.Options{Parallelism: 1}, BatchWindow: window})
	if err != nil {
		t.Fatal(err)
	}

	// Gate every shard retrieval: all shards block at their start hook
	// until the server-side request context reports the disconnect, so the
	// cancellation is deterministically "mid-batch" — dispatched, not yet
	// scanned — and the scans observably start only after it landed.
	started := make(chan struct{})
	var startOnce sync.Once
	var mu sync.Mutex
	var shardErrs []error
	own := 0 // shard scans that ran under the request's own context
	sh := srv.Sharded()
	sh.testShardStart = func(ctx context.Context, _ int) {
		if requestInfo(ctx) != nil {
			mu.Lock()
			own++
			mu.Unlock()
		}
		startOnce.Do(func() { close(started) })
		<-ctx.Done()
	}
	sh.testShardDone = func(_ int, err error) {
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
		t.Fatal("no shard retrieval started")
	}
	cancel() // the client disconnects mid-batch
	if err := <-clientDone; err == nil {
		t.Fatal("client request succeeded despite cancellation")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(shardErrs)
		mu.Unlock()
		if n == testShards {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d shard retrievals finished", n, testShards)
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
	if canceled != testShards {
		t.Fatalf("%d of %d shard retrievals saw context.Canceled: %v", canceled, testShards, shardErrs)
	}
	if own != testShards {
		t.Fatalf("%d of %d shard scans ran under the request's own context, want all: a lone request must not be handed to a dispatched batch", own, testShards)
	}
}

// TestRequestTimeoutAbortsRetrieval checks Config.RequestTimeout flows into
// shard scans: a request whose deadline expires mid-batch returns 503 and
// the shards observe context.DeadlineExceeded.
func TestRequestTimeoutAbortsRetrieval(t *testing.T) {
	for _, path := range cancelPaths {
		t.Run(path.name, func(t *testing.T) {
			q, p := smokeMatrices(t)
			srv, err := New(p, Config{Shards: testShards, Options: lemp.Options{Parallelism: 1}, RequestTimeout: 30 * time.Millisecond, BatchWindow: path.window})
			if err != nil {
				t.Fatal(err)
			}
			sh := srv.Sharded()
			// Hold each shard until the per-request deadline has expired.
			var mu sync.Mutex
			var shardErrs []error
			sh.testShardStart = func(ctx context.Context, _ int) { <-ctx.Done() }
			sh.testShardDone = func(_ int, err error) {
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
			// The handler answered after the fan-out returned, so every shard
			// has reported.
			mu.Lock()
			defer mu.Unlock()
			for _, err := range shardErrs {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("shard retrieval returned %v, want context.DeadlineExceeded", err)
				}
			}
			if len(shardErrs) != testShards {
				t.Errorf("%d of %d shard retrievals reported", len(shardErrs), testShards)
			}
		})
	}
}

// TestShardedTuningCacheReuse checks the serving path shares one tuning
// cache across shards and epochs key it: repeat calls tune zero times,
// updates force exactly one re-tune per shard.
func TestShardedTuningCacheReuse(t *testing.T) {
	q, p := smokeMatrices(t)
	sh, err := NewShardedPlaced(p, nil, testShards, lemp.Options{Algorithm: lemp.AlgorithmLI, Parallelism: 1}, PlaceRange)
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := sh.CurrentView().TopKCtx(context.Background(), q, 5); err != nil {
		t.Fatal(err)
	} else if st.Tunings != testShards {
		t.Fatalf("first call ran %d tunings, want one per shard (%d)", st.Tunings, testShards)
	}
	top, st, err := sh.CurrentView().TopKCtx(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tunings != 0 || st.TuneCacheHits != testShards {
		t.Fatalf("warm call: Tunings=%d TuneCacheHits=%d, want 0/%d", st.Tunings, st.TuneCacheHits, testShards)
	}
	if st.TuneTime != 0 {
		t.Fatalf("warm call spent %v tuning", st.TuneTime)
	}

	// Results identical to a direct unsharded index.
	direct := directIndex(t, p)
	want := directTopK(t, direct, q, 5)
	for i := range want {
		if len(top[i]) != len(want[i]) {
			t.Fatalf("row %d: %d entries, want %d", i, len(top[i]), len(want[i]))
		}
		for j := range want[i] {
			if top[i][j].Probe != want[i][j].Probe || top[i][j].Value != want[i][j].Value {
				t.Fatalf("row %d entry %d differs", i, j)
			}
		}
	}

	// An update batch rotates the keys of the affected shards only.
	if _, err := sh.Update([]lemp.ProbeUpdate{{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: p.Vec(0)}}, -1); err != nil {
		t.Fatal(err)
	}
	_, st, err = sh.CurrentView().TopKCtx(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tunings != 1 || st.TuneCacheHits != testShards-1 {
		t.Fatalf("post-update call: Tunings=%d TuneCacheHits=%d, want 1/%d (only the mutated shard re-tunes)",
			st.Tunings, st.TuneCacheHits, testShards-1)
	}
}
