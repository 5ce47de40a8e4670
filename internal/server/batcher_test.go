package server

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lemp"
)

// newTestSharded builds the 4-shard index over the Smoke probes.
func newTestSharded(t testing.TB) (*Sharded, *lemp.Matrix) {
	t.Helper()
	q, p := smokeMatrices(t)
	sh, err := NewShardedPlaced(p, nil, testShards, lemp.Options{Parallelism: 1}, PlaceRange)
	if err != nil {
		t.Fatal(err)
	}
	return sh, q
}

// TestShardedMatchesDirect exercises the shard manager below the HTTP
// layer: merged top-k rows and Above-θ rows must equal the direct run.
func TestShardedMatchesDirect(t *testing.T) {
	sh, q := newTestSharded(t)
	_, p := smokeMatrices(t)
	direct := directIndex(t, p)

	const k = 7
	got, _, err := sh.CurrentView().TopKCtx(context.Background(), q, k)
	if err != nil {
		t.Fatal(err)
	}
	compareRows(t, "top-k", got, directTopK(t, direct, q, k))

	theta := 1.5
	gotRows, _, err := sh.CurrentView().AboveThetaCtx(context.Background(), q, theta)
	if err != nil {
		t.Fatal(err)
	}
	compareRows(t, "above-θ", gotRows, directAboveRows(t, direct, q, theta))
}

// TestBatcherCoalesces submits many concurrent single-row requests inside
// one window and checks that (a) far fewer retrieval calls than requests
// were dispatched and (b) every caller got exactly its own row back.
func TestBatcherCoalesces(t *testing.T) {
	sh, q := newTestSharded(t)
	_, p := smokeMatrices(t)
	direct := directIndex(t, p)

	const callers, k = 32, 5
	want := directTopK(t, direct, q.Head(callers), k)

	b := NewBatcher(sh, 100*time.Millisecond, 1024, BatchModeWindow)
	var dispatches, coalesced atomic.Int64
	b.onDispatch = func(rows, requests int) {
		dispatches.Add(1)
		coalesced.Add(int64(requests))
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rows, _, err := b.TopKAt(context.Background(), sh.CurrentView(), q.Vec(i), 1, k)
			if err != nil {
				errs <- err
				return
			}
			if len(rows) != 1 || len(rows[0]) != len(want[i]) {
				t.Errorf("caller %d: bad shape", i)
				return
			}
			for j, e := range rows[0] {
				if e.Query != 0 || e.Probe != want[i][j].Probe || e.Value != want[i][j].Value {
					t.Errorf("caller %d entry %d: got %+v, want %+v", i, j, e, want[i][j])
					return
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := dispatches.Load(); got >= callers/2 {
		t.Errorf("%d retrieval calls for %d concurrent requests: batching ineffective", got, callers)
	}
	if got := coalesced.Load(); got != callers {
		t.Errorf("coalesced %d requests, want %d", got, callers)
	}
}

// TestBatcherDispatchesAtMax checks that a batch reaching BatchMax rows
// dispatches immediately instead of waiting out a long window.
func TestBatcherDispatchesAtMax(t *testing.T) {
	sh, q := newTestSharded(t)
	const max = 8
	b := NewBatcher(sh, 10*time.Second, max, BatchModeWindow)

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < max; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := b.TopKAt(context.Background(), sh.CurrentView(), q.Vec(i), 1, 3); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("batch at max waited %v; should dispatch before the window", elapsed)
	}
}

// TestBatcherKeysSeparateParams checks that requests with different k (or
// different problems) never share a batch.
func TestBatcherKeysSeparateParams(t *testing.T) {
	sh, q := newTestSharded(t)
	b := NewBatcher(sh, 50*time.Millisecond, 1024, BatchModeWindow)
	type dispatched struct{ rows int }
	var mu sync.Mutex
	var batches []dispatched
	b.onDispatch = func(rows, _ int) {
		mu.Lock()
		batches = append(batches, dispatched{rows})
		mu.Unlock()
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		k := 2 + i%2 // two distinct k values
		wg.Add(1)
		go func(i, k int) {
			defer wg.Done()
			<-start
			if _, _, err := b.TopKAt(context.Background(), sh.CurrentView(), q.Vec(i), 1, k); err != nil {
				t.Error(err)
			}
		}(i, k)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if _, _, err := b.AboveThetaAt(context.Background(), sh.CurrentView(), q.Vec(5), 1, 1.5); err != nil {
			t.Error(err)
		}
	}()
	close(start)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	// Three distinct parameter sets {k=2, k=3, θ=1.5} can never share a
	// batch, so at least 3 batches fire; scheduling skew past the window
	// may split a key into more, but every row must be accounted for.
	total := 0
	for _, d := range batches {
		total += d.rows
	}
	if len(batches) < 3 {
		t.Errorf("%d batches for {k=2, k=3, θ=1.5}, want at least 3: %+v", len(batches), batches)
	}
	if total != 5 {
		t.Errorf("dispatched %d rows across batches, want 5: %+v", total, batches)
	}
}
