package server

import (
	"context"
	"sync"
	"testing"
	"time"

	"lemp"
)

// newTestSharded builds the 4-shard index over the Smoke probes.
func newTestSharded(t testing.TB) (*Sharded, *lemp.Matrix) {
	t.Helper()
	q, p := smokeMatrices(t)
	sh, err := shardedOver(p, lemp.Options{Parallelism: 1})
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
// its onDispatch hook, until release, and logs every call's row count. A held
// call's rows count in flight, so a test can pin the queue depth.
type heldCalls struct {
	n       int
	gate    chan struct{}
	release func()

	mu   sync.Mutex
	rows []int
}

func holdCalls(t testing.TB, b *Batcher, n int) *heldCalls {
	h := &heldCalls{n: n, gate: make(chan struct{})}
	var once sync.Once
	h.release = func() { once.Do(func() { close(h.gate) }) }
	t.Cleanup(h.release)
	b.onDispatch = func(rows int) {
		h.mu.Lock()
		h.rows = append(h.rows, rows)
		held := len(h.rows) <= h.n
		h.mu.Unlock()
		if held {
			<-h.gate
		}
	}
	return h
}

// calls returns the row counts of the calls made so far.
func (h *heldCalls) calls() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int(nil), h.rows...)
}

// await waits until at least n calls have started.
func (h *heldCalls) await(t testing.TB, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); len(h.calls()) < n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d retrieval calls never started", n)
		}
	}
}
