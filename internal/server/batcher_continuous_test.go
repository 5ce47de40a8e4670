package server

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBatcherRejectsMalformedSubmission: a library-level submission whose
// data length does not match rows*R fails its own caller at submit time,
// before it counts in flight or reaches the shards, and two good requests in
// flight beside it are unharmed.
func TestBatcherRejectsMalformedSubmission(t *testing.T) {
	sh, q := newTestSharded(t)
	b := NewBatcher(sh, 10*time.Second, 1024, BatchModeContinuous)
	held := holdCalls(t, b, 2)

	const k = 5
	call := func(i int, done chan<- error) {
		rows, _, err := b.TopKAt(context.Background(), sh.CurrentView(), q.Vec(i), 1, k)
		if err == nil && (len(rows) != 1 || len(rows[0]) != k) {
			err = errors.New("good caller got a bad row shape")
		}
		done <- err
	}
	firstDone, goodDone := make(chan error, 1), make(chan error, 1)
	go call(2, firstDone)
	go call(0, goodDone)
	held.await(t, 2)
	bad := q.Vec(1)[:sh.R()-1] // one coordinate short
	start := time.Now()
	if _, _, err := b.TopKAt(context.Background(), sh.CurrentView(), bad, 1, k); err == nil {
		t.Fatal("malformed submission accepted")
	} else if !strings.Contains(err.Error(), "rows of dimension") {
		t.Fatalf("malformed submission error = %v, want a shape error", err)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Error("malformed submission waited for the calls in flight instead of failing at submit")
	}
	if n := b.RowsInFlight(); n != 2 {
		t.Errorf("%d rows in flight beside the refusal, want the two held requests' 2", n)
	}
	held.release()
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if err := <-goodDone; err != nil {
		t.Fatalf("good request beside the malformed one: %v", err)
	}
}

// TestBatcherRejectsBadParams pins the batcher door: the one k/θ check fails
// a bad parameter's own caller before any retrieval call. NaN θ is refused
// too: every comparison with NaN is false, so a check written θ <= 0 would
// admit it and poison the pruning bounds. Every refusal must be an explicit
// error, reach no retrieval call and leave no row in flight.
func TestBatcherRejectsBadParams(t *testing.T) {
	sh, q := newTestSharded(t)
	b := NewBatcher(sh, 10*time.Second, 1024, BatchModeContinuous)
	b.onDispatch = func(rows int) { t.Errorf("a refused request reached a retrieval call of %d rows", rows) }

	for _, theta := range []float64{0, -1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, _, err := b.AboveThetaAt(context.Background(), sh.CurrentView(), q.Vec(0), 1, theta); err == nil {
			t.Errorf("AboveThetaAt(θ=%v) accepted", theta)
		}
	}
	for _, k := range []int{0, -3} {
		if _, _, err := b.TopKAt(context.Background(), sh.CurrentView(), q.Vec(0), 1, k); err == nil {
			t.Errorf("TopKAt(k=%d) accepted", k)
		}
	}
	if n := b.RowsInFlight(); n != 0 {
		t.Fatalf("rejected requests left %d rows in flight", n)
	}
}

// ownCtxKey marks a caller's context, so a shard hook can tell whether a
// scan runs under that caller's own context.
type ownCtxKey struct{}

// TestBatcherContinuousImmediateDispatch pins that no request waits on
// another: while a first request's retrieval is held in flight, a second
// with the same k, epoch and view dispatches a retrieval call of its own,
// runs its scan under its own context and returns its rows, all before the
// first returns.
func TestBatcherContinuousImmediateDispatch(t *testing.T) {
	sh, q := newTestSharded(t)
	b := NewBatcher(sh, 2*time.Millisecond, 1024, BatchModeContinuous)
	held := holdCalls(t, b, 1)
	view := sh.CurrentView()

	first := make(chan error, 1)
	go func() {
		_, _, err := b.TopKAt(context.Background(), view, q.Vec(0), 1, 5)
		first <- err
	}()
	held.await(t, 1)

	var own, scans atomic.Int32
	sh.testScanStart = func(ctx context.Context) {
		scans.Add(1)
		if ctx.Value(ownCtxKey{}) != nil {
			own.Add(1)
		}
	}
	ctx := context.WithValue(context.Background(), ownCtxKey{}, true)
	rows, _, err := b.TopKAt(ctx, view, q.Vec(1), 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 5 {
		t.Fatalf("bad shape: %d rows", len(rows))
	}
	select {
	case <-first:
		t.Fatal("the held request returned before its release")
	default:
	}
	if calls := held.calls(); len(calls) != 2 || calls[1] != 1 {
		t.Errorf("retrieval calls of %v rows, want the held one's and the second's own, 1 row each", calls)
	}
	if o, n := own.Load(), scans.Load(); o != 1 || n != 1 {
		t.Errorf("%d of %d scans ran under the second caller's own context, want its one", o, n)
	}
	if n := b.RowsInFlight(); n != 1 {
		t.Errorf("%d rows in flight after the second returned, want the held request's 1", n)
	}
	sh.testScanStart = nil
	held.release()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}

// TestBatcherContinuousStress runs many concurrent requests on two keys, a
// third of them under tight deadlines, under the race detector: every caller
// must return (its rows or its context error), no request may dispatch
// twice or be lost, and no row may stay in flight when the load stops.
func TestBatcherContinuousStress(t *testing.T) {
	sh, q := newTestSharded(t)
	b := NewBatcher(sh, 200*time.Microsecond, 8, BatchModeContinuous)
	var dispatchedRows atomic.Int64
	b.onDispatch = func(rows int) { dispatchedRows.Add(int64(rows)) }

	const goroutines, iters = 16, 25
	var submitted, okRows atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if rng.Intn(3) == 0 {
					// A tight deadline: some requests end before their
					// call, some mid-flight, some after completion.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(500))*time.Microsecond)
				}
				k := 2 + rng.Intn(2) // two keys
				submitted.Add(1)
				rows, _, err := b.TopKAt(ctx, sh.CurrentView(), q.Vec((g*iters+i)%q.N()), 1, k)
				cancel()
				switch {
				case err == nil:
					if len(rows) != 1 || len(rows[0]) != k {
						t.Errorf("bad shape: %d rows for k=%d", len(rows), k)
					}
					okRows.Add(1)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()

	// Every call returned, so every row it counted in flight is released.
	if n := b.RowsInFlight(); n != 0 {
		t.Fatalf("%d rows in flight after every request returned", n)
	}

	if d, s, ok := dispatchedRows.Load(), submitted.Load(), okRows.Load(); d > s || d < ok {
		t.Fatalf("dispatched %d rows for %d submissions (%d served): double- or lost dispatch", d, s, ok)
	}
}
