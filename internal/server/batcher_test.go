package server

import (
	"context"
	"slices"
	"sync"
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

// heldCalls holds the first n retrieval calls of a batcher in flight, in
// its onDispatch hook, until release, and logs every call's row and request
// counts. Requests on the key of a held call wait in a forming batch behind
// it, so a test can park them deterministically.
type heldCalls struct {
	n       int
	gate    chan struct{}
	release func()

	mu       sync.Mutex
	rows     []int
	requests int
}

func holdCalls(t testing.TB, b *Batcher, n int) *heldCalls {
	h := &heldCalls{n: n, gate: make(chan struct{})}
	var once sync.Once
	h.release = func() { once.Do(func() { close(h.gate) }) }
	t.Cleanup(h.release)
	b.onDispatch = func(rows, requests int) {
		h.mu.Lock()
		h.rows = append(h.rows, rows)
		h.requests += requests
		held := len(h.rows) <= h.n
		h.mu.Unlock()
		if held {
			<-h.gate
		}
	}
	return h
}

// calls returns the row counts of the calls made so far and the number of
// requests they served.
func (h *heldCalls) calls() ([]int, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int(nil), h.rows...), h.requests
}

// await waits until at least n calls have started.
func (h *heldCalls) await(t testing.TB, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if rows, _ := h.calls(); len(rows) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d retrieval calls never started", n)
		}
	}
}

// awaitPending waits until b's forming batches hold n rows.
func awaitPending(t testing.TB, b *Batcher, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); b.PendingRows() < n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d rows joined a forming batch", b.PendingRows(), n)
		}
	}
}

// TestBatcherCoalesces parks many concurrent single-row requests behind one
// held retrieval and checks that (a) they are served by one combined call
// and (b) every caller got exactly its own row back.
func TestBatcherCoalesces(t *testing.T) {
	sh, q := newTestSharded(t)
	_, p := smokeMatrices(t)
	direct := directIndex(t, p)

	const callers, k = 32, 5
	want := directTopK(t, direct, q.Head(callers), k)

	b := NewBatcher(sh, 10*time.Second, 1024, BatchModeContinuous)
	held := holdCalls(t, b, 1)

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	call := func(i int) {
		defer wg.Done()
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
	}
	wg.Add(callers)
	go call(0) // alone on the idle key: its retrieval is held
	held.await(t, 1)
	for i := 1; i < callers; i++ {
		go call(i)
	}
	awaitPending(t, b, callers-1)
	held.release()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if rows, requests := held.calls(); len(rows) != 2 || rows[1] != callers-1 || requests != callers {
		t.Errorf("calls %v serving %d requests, want [1 %d] serving %d", rows, requests, callers-1, callers)
	}
}

// TestBatcherDispatchesAtMax checks that a batch reaching BatchMax rows
// dispatches at once, without waiting for the retrieval it is held behind
// or for a long window.
func TestBatcherDispatchesAtMax(t *testing.T) {
	sh, q := newTestSharded(t)
	const max = 8
	b := NewBatcher(sh, 10*time.Second, max, BatchModeContinuous)
	held := holdCalls(t, b, 1)
	first := make(chan error, 1)
	go func() {
		_, _, err := b.TopKAt(context.Background(), sh.CurrentView(), q.Vec(max), 1, 3)
		first <- err
	}()
	held.await(t, 1)

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
	held.release()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}

// TestBatcherKeysSeparateParams checks that requests with different k (or
// different problems) never share a batch.
func TestBatcherKeysSeparateParams(t *testing.T) {
	sh, q := newTestSharded(t)
	b := NewBatcher(sh, 10*time.Second, 1024, BatchModeContinuous)
	held := holdCalls(t, b, 3)

	var wg sync.WaitGroup
	submit := func(i, k int) { // k < 0 submits Above-θ at θ = 1.5
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if k > 0 {
				_, _, err = b.TopKAt(context.Background(), sh.CurrentView(), q.Vec(i), 1, k)
			} else {
				_, _, err = b.AboveThetaAt(context.Background(), sh.CurrentView(), q.Vec(i), 1, 1.5)
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	// One held retrieval on each of the keys {k=2, k=3, θ=1.5}, then one,
	// two and three rows parked behind them.
	keys := []int{2, 3, -1}
	for i, k := range keys {
		submit(i, k)
		held.await(t, i+1)
	}
	row := len(keys)
	for i, k := range keys {
		for j := 0; j <= i; j++ {
			submit(row, k)
			row++
		}
	}
	awaitPending(t, b, 6)
	held.release()
	wg.Wait()
	// Batches of 1, 2 and 3 rows, one per key: requests that differ in a
	// parameter never share a retrieval call.
	rows, _ := held.calls()
	slices.Sort(rows)
	if !slices.Equal(rows, []int{1, 1, 1, 1, 2, 3}) {
		t.Errorf("retrieval calls of %v rows, want three held calls and one batch of 1, 2 and 3 rows", rows)
	}
}
