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

// TestBatcherRejectsMalformedSubmission is the batch-poisoning regression
// test: a library-level submission whose data length does not match
// rows*R must fail its own caller alone, at submit time — before the fix,
// the shape was only checked by MatrixFromData after dispatch, so one bad
// submission failed the whole coalesced batch for every innocent
// batch-mate.
func TestBatcherRejectsMalformedSubmission(t *testing.T) {
	sh, q := newTestSharded(t)
	b := NewBatcher(sh, 100*time.Millisecond, 1024, BatchModeWindow)

	const k = 5
	goodDone := make(chan error, 1)
	go func() {
		rows, _, err := b.TopKAt(context.Background(), sh.CurrentView(), q.Vec(0), 1, k)
		if err == nil && (len(rows) != 1 || len(rows[0]) != k) {
			err = errors.New("good caller got a bad row shape")
		}
		goodDone <- err
	}()
	// Wait until the good caller sits in the forming batch, then offer the
	// malformed submission that would have poisoned it.
	deadline := time.Now().Add(5 * time.Second)
	for b.PendingRows() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("good caller never joined a forming batch")
		}
		time.Sleep(100 * time.Microsecond)
	}
	bad := q.Vec(1)[:sh.R()-1] // one coordinate short
	start := time.Now()
	if _, _, err := b.TopKAt(context.Background(), sh.CurrentView(), bad, 1, k); err == nil {
		t.Fatal("malformed submission accepted")
	} else if !strings.Contains(err.Error(), "rows of dimension") {
		t.Fatalf("malformed submission error = %v, want a shape error", err)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Error("malformed submission waited for the batch instead of failing at submit")
	}
	if err := <-goodDone; err != nil {
		t.Fatalf("innocent batch-mate poisoned: %v", err)
	}
}

// TestBatcherRejectsBadParams pins the batcher door: the one k/θ check fails
// a bad parameter's own caller before it can join a batch. It also pins the
// NaN-θ orphan-batch fix: θ is part of the coalescing key and NaN != NaN, so
// an admitted NaN-θ request could never find its forming batch again — every
// call would spawn its own timer-held batch. Every refusal must be an
// explicit error and leave no pending row, forming batch or timer behind.
func TestBatcherRejectsBadParams(t *testing.T) {
	sh, q := newTestSharded(t)
	b := NewBatcher(sh, 10*time.Second, 1024, BatchModeWindow)

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
	if n := b.PendingRows(); n != 0 {
		t.Fatalf("rejected requests left %d pending rows", n)
	}
	b.mu.Lock()
	forming, keys := len(b.forming), len(b.keys)
	b.mu.Unlock()
	if forming != 0 || keys != 0 {
		t.Fatalf("rejected requests left %d orphan forming batches (the only holders of a timer) and %d key states", forming, keys)
	}
}

// TestBatcherContinuousImmediateDispatch checks the low-load half of
// continuous batching: a request arriving while its key has no retrieval
// in flight dispatches immediately instead of waiting out the window.
func TestBatcherContinuousImmediateDispatch(t *testing.T) {
	sh, q := newTestSharded(t)
	b := NewBatcher(sh, 10*time.Second, 1024, BatchModeContinuous)

	start := time.Now()
	rows, _, err := b.TopKAt(context.Background(), sh.CurrentView(), q.Vec(0), 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 5 {
		t.Fatalf("bad shape: %d rows", len(rows))
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("idle-key request took %v; continuous mode must not wait the window", elapsed)
	}
}

// TestBatcherContinuousBackToBack checks the loaded half: requests that
// arrive while a retrieval is in flight coalesce, and the forming batch
// fires the moment that retrieval completes — not at the window, not at
// max — so dispatches run back-to-back.
func TestBatcherContinuousBackToBack(t *testing.T) {
	sh, q := newTestSharded(t)
	b := NewBatcher(sh, 10*time.Second, 1024, BatchModeContinuous)

	release := make(chan struct{})
	var dispatches atomic.Int64
	b.onDispatch = func(rows, requests int) {
		if dispatches.Add(1) == 1 {
			<-release // hold the first retrieval so a second batch forms
		}
	}

	firstDone := make(chan error, 1)
	go func() {
		_, _, err := b.TopKAt(context.Background(), sh.CurrentView(), q.Vec(0), 1, 5)
		firstDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for dispatches.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never dispatched")
		}
		time.Sleep(100 * time.Microsecond)
	}

	const joiners = 8
	var wg sync.WaitGroup
	errs := make(chan error, joiners)
	for i := 1; i <= joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := b.TopKAt(context.Background(), sh.CurrentView(), q.Vec(i), 1, 5); err != nil {
				errs <- err
			}
		}(i)
	}
	// All joiners must coalesce into one forming batch held behind the
	// in-flight retrieval.
	for b.PendingRows() < joiners {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d joiners coalesced behind the in-flight batch", b.PendingRows(), joiners)
		}
		time.Sleep(100 * time.Microsecond)
	}

	start := time.Now()
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("held batch took %v after completion; must fire immediately, not at the window", elapsed)
	}
	if got := dispatches.Load(); got != 2 {
		t.Fatalf("%d dispatches for 1+%d requests, want exactly 2 (immediate + completion-fired)", got, joiners)
	}
}

// TestBatcherSkipsAbandonedWaiters pins the abandoned-waiter scatter fix:
// dispatch must not send a batchResult (with its sliced result rows) into
// the buffered done channel of a waiter whose caller already left — the
// send would pin those rows until the channel is collected, for a reader
// that will never come.
func TestBatcherSkipsAbandonedWaiters(t *testing.T) {
	sh, q := newTestSharded(t)
	b := NewBatcher(sh, 10*time.Second, 3, BatchModeWindow)

	const k = 5
	ctxA, cancelA := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	go func() {
		_, _, err := b.TopKAt(ctxA, sh.CurrentView(), q.Vec(0), 1, k)
		aDone <- err
	}()
	cDone := make(chan error, 1)
	go func() {
		rows, _, err := b.TopKAt(context.Background(), sh.CurrentView(), q.Vec(1), 1, k)
		if err == nil && len(rows) != 1 {
			err = errors.New("bad shape")
		}
		cDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for b.PendingRows() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("callers never joined the forming batch")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Grab A's waiter (offset 0 belongs to whichever joined first; find the
	// gone one after cancellation instead of assuming order).
	b.mu.Lock()
	if len(b.forming) != 1 {
		b.mu.Unlock()
		t.Fatalf("%d forming batches, want 1", len(b.forming))
	}
	var fb *formingBatch
	for _, f := range b.forming {
		fb = f
	}
	b.mu.Unlock()

	cancelA()
	if err := <-aDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller got %v, want context.Canceled", err)
	}
	b.mu.Lock()
	var abandoned *waiter
	for _, w := range fb.waiters {
		if w.gone {
			abandoned = w
		}
	}
	b.mu.Unlock()
	if abandoned == nil {
		t.Fatal("no waiter marked gone after abandon")
	}

	// A third caller fills the batch to max (3 rows): it fires with the
	// abandoned waiter still in it.
	rows, _, err := b.TopKAt(context.Background(), sh.CurrentView(), q.Vec(2), 1, k)
	if err != nil || len(rows) != 1 {
		t.Fatalf("filling caller: rows=%d err=%v", len(rows), err)
	}
	if err := <-cDone; err != nil {
		t.Fatalf("surviving batch-mate: %v", err)
	}
	if n := len(abandoned.done); n != 0 {
		t.Fatalf("dispatch sent %d results into an abandoned waiter's channel", n)
	}
}

// TestBatcherContinuousStress interleaves join, abandon, timer-fire and
// completion-fire in continuous mode under the race detector: every caller
// must return (its rows or its context error), no batch may dispatch
// twice, and the batcher must drain to zero pending rows and zero tracked
// keys when the load stops.
func TestBatcherContinuousStress(t *testing.T) {
	sh, q := newTestSharded(t)
	b := NewBatcher(sh, 200*time.Microsecond, 8, BatchModeContinuous)
	var dispatchedRows atomic.Int64
	b.onDispatch = func(rows, _ int) { dispatchedRows.Add(int64(rows)) }

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
					// A tight deadline: some requests abandon mid-form,
					// some mid-flight, some after completion.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(500))*time.Microsecond)
				}
				k := 2 + rng.Intn(2) // two keys, so batches displace and coexist
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

	// Quiesce: abandoned batches and in-flight dispatches finish
	// asynchronously; the batcher must then hold no pending rows, no
	// forming batches and no per-key dispatch state.
	deadline := time.Now().Add(10 * time.Second)
	for {
		b.mu.Lock()
		forming, keys := len(b.forming), len(b.keys)
		b.mu.Unlock()
		if b.PendingRows() == 0 && forming == 0 && keys == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batcher did not drain: pending=%d forming=%d keys=%d",
				b.PendingRows(), forming, keys)
		}
		time.Sleep(time.Millisecond)
	}

	if d, s, ok := dispatchedRows.Load(), submitted.Load(), okRows.Load(); d > s || d < ok {
		t.Fatalf("dispatched %d rows for %d submissions (%d served): double- or lost dispatch", d, s, ok)
	}
}

// TestBatcherArmsTimerOnlyWhenWaiting: the window timer exists for batches
// that wait. A batch that fires in the call that created it — an idle key
// in continuous mode, a batch filled to max — never arms one, and retiring
// a batch without a timer is safe; window mode and the batch held behind an
// in-flight retrieval still fire on the timer.
func TestBatcherArmsTimerOnlyWhenWaiting(t *testing.T) {
	sh, q := newTestSharded(t)
	ctx := context.Background()
	view := sh.CurrentView()
	key := batchKey{topk: true, k: 5, epoch: view.Epoch()}
	await := func(t *testing.T, w *waiter) {
		t.Helper()
		select {
		case res := <-w.done:
			if res.err != nil || len(res.rows) != 1 || len(res.rows[0]) != 5 {
				t.Fatalf("batch result: %d rows, err %v", len(res.rows), res.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("batch never fired")
		}
	}

	t.Run("idle key in continuous mode", func(t *testing.T) {
		// No batch forms at all: join claims the key for the caller's own
		// retrieval, and its completion leaves the key untracked.
		b := NewBatcher(sh, 10*time.Second, 1024, BatchModeContinuous)
		fb, w := b.join(ctx, key, view, q.Vec(0), 1)
		if fb != nil || w != nil {
			t.Fatal("join on an idle key formed a batch")
		}
		b.mu.Lock()
		inflight, forming := b.inflight(key), len(b.forming)
		b.mu.Unlock()
		if inflight != 1 || forming != 0 {
			t.Fatalf("inflight=%d forming=%d after the claim, want 1 and 0", inflight, forming)
		}
		if res := b.retrieveAlone(ctx, key, view, q.Vec(0), 1); res.err != nil || len(res.rows) != 1 || len(res.rows[0]) != 5 {
			t.Fatalf("inline result: %d rows, err %v", len(res.rows), res.err)
		}
		if len(b.keys) != 0 {
			t.Fatalf("%d keys tracked after the inline retrieval completed", len(b.keys))
		}
	})
	t.Run("filled to max", func(t *testing.T) {
		b := NewBatcher(sh, 10*time.Second, 2, BatchModeWindow)
		fb, w := b.join(ctx, key, view, q.Slice(0, 2).Data(), 2)
		if !fb.fired || fb.timer != nil {
			t.Fatalf("fired=%v timer=%v, want an immediate dispatch without a timer", fb.fired, fb.timer)
		}
		if res := <-w.done; res.err != nil || len(res.rows) != 2 {
			t.Fatalf("batch result: %d rows, err %v", len(res.rows), res.err)
		}
	})
	t.Run("abandon before fire with no timer", func(t *testing.T) {
		b := NewBatcher(sh, 10*time.Second, 1024, BatchModeWindow)
		fb := &formingBatch{key: key, view: view, rows: 1, live: 1}
		fb.ctx, fb.cancel = context.WithCancel(ctx)
		w := &waiter{n: 1, done: make(chan batchResult, 1)}
		fb.waiters = []*waiter{w}
		b.forming[key] = fb
		b.pending.Add(1)
		b.abandon(fb, w)
		if !fb.fired || len(b.forming) != 0 || b.PendingRows() != 0 || fb.ctx.Err() == nil {
			t.Fatalf("abandoned batch not retired: fired=%v forming=%d pending=%d", fb.fired, len(b.forming), b.PendingRows())
		}
	})
	t.Run("window mode fires on the timer", func(t *testing.T) {
		b := NewBatcher(sh, 5*time.Millisecond, 1024, BatchModeWindow)
		fb, w := b.join(ctx, key, view, q.Vec(0), 1)
		b.mu.Lock()
		armed := fb.timer != nil
		b.mu.Unlock()
		if !armed {
			t.Fatal("waiting batch has no window timer")
		}
		await(t, w)
	})
	t.Run("held behind an in-flight retrieval fires on the timer", func(t *testing.T) {
		b := NewBatcher(sh, 5*time.Millisecond, 1024, BatchModeContinuous)
		release := make(chan struct{})
		var dispatches atomic.Int64
		b.onDispatch = func(rows, requests int) {
			if dispatches.Add(1) == 1 {
				<-release // hold the first retrieval for the whole test
			}
		}
		first := make(chan error, 1)
		go func() {
			_, _, err := b.TopKAt(ctx, view, q.Vec(0), 1, 5)
			first <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); dispatches.Load() == 0; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("first request never dispatched")
			}
		}
		held, w := b.join(ctx, key, view, q.Vec(1), 1)
		b.mu.Lock()
		armed := held.timer != nil
		b.mu.Unlock()
		if !armed {
			t.Fatal("batch held behind an in-flight retrieval has no window timer")
		}
		await(t, w) // the first retrieval is still held: only the timer can have fired this
		close(release)
		if err := <-first; err != nil {
			t.Fatal(err)
		}
	})
}
