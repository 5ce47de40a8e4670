package server

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lemp"
)

// TestConcurrentSameShardCalls: nothing orders retrievals on one shard. A
// TopKCtx(k=5) call is held inside shard 0; a TopKCtx(k=7) call on the same
// view must enter shard 0 while it is still there, and both must answer as
// they do alone.
func TestConcurrentSameShardCalls(t *testing.T) {
	q, p := smokeMatrices(t)
	sh, err := NewShardedPlaced(p, nil, testShards, lemp.Options{Parallelism: 1}, PlaceRange)
	if err != nil {
		t.Fatal(err)
	}
	q = q.Head(8)
	v := sh.CurrentView()
	want := make(map[int]lemp.TopKRows)
	for _, k := range []int{5, 7} {
		if want[k], _, err = v.TopKCtx(context.Background(), q, k); err != nil {
			t.Fatal(err)
		}
	}

	// The first call into shard 0 stays there until released.
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	var held atomic.Bool
	sh.testShardStart = func(_ context.Context, shard int) {
		if shard != 0 {
			return
		}
		entered <- struct{}{}
		if held.CompareAndSwap(false, true) {
			<-release
		}
	}
	var wg sync.WaitGroup
	call := func(k int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := v.TopKCtx(context.Background(), q, k)
			if err != nil {
				t.Errorf("k=%d: %v", k, err)
			} else if !reflect.DeepEqual(got, want[k]) {
				t.Errorf("k=%d: answer differs from the one the call gives alone", k)
			}
		}()
	}
	awaitEntry := func(what string) {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			close(release)
			wg.Wait()
			t.Fatalf("%s did not enter shard 0", what)
		}
	}
	call(5)
	awaitEntry("the first call")
	call(7)
	awaitEntry("the second call, while the first is held there,")
	close(release)
	wg.Wait()
}

// TestConcurrentNumShardsBesideUpdates: /healthz and the lemp_shards gauge
// read the shard count while Update's commits replace the shard slice. Under
// -race this fails unless NumShards takes the read lock, as N and Epoch do.
func TestConcurrentNumShardsBesideUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const r, n = 4, 40
	srv, err := New(epochProbe(rng, r, n), Config{Shards: 2, Options: lemp.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	h, sh := srv.Handler(), srv.Sharded()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/healthz", "/metrics"} {
				if w := doJSON(t, h, "GET", path, ""); w.Code != 200 {
					t.Errorf("GET %s = %d", path, w.Code)
					return
				}
			}
		}
	}()
	for round := 0; round < 16; round++ {
		if _, err := sh.Update([]lemp.ProbeUpdate{{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: randVec(rng, r)}}, 0.25); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
}
