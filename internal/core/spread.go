package core

import (
	"sync"
	"sync/atomic"
)

// The build's independent work — each probe's length, its row's copy into
// its bucket, each bucket's layout and int8 sidecar, and a restore's check of
// its stored buckets and lists — fans out over Options.Parallelism
// goroutines. Every item writes only its own slots, so the result does not
// depend on how the items were split. The work reaches the helpers as a
// function of an argument value rather than as a closure, so that a call
// that runs on one goroutine, as every retrieval's query preparation and
// every update of a Parallelism 1 index does, allocates nothing for them.

// spreadMinCols is the fewest columns worth a goroutine of their own: a
// column's length or row copy takes tens of nanoseconds.
const spreadMinCols = 4096

// spreadWorkers is how many of up to workers goroutines work over cols
// columns is worth: one per spreadMinCols, at least one. An update's small
// run builds on the caller's goroutine alone.
func spreadWorkers(cols, workers int) int { return max(1, min(workers, cols/spreadMinCols)) }

// spreadCols runs fn(arg, lo, hi) over [0, n) cut into up to workers
// contiguous ranges of at least spreadMinCols columns, the caller's goroutine
// taking the first, and returns once every range is done.
func spreadCols[A any](n, workers int, arg A, fn func(arg A, lo, hi int)) {
	w := spreadWorkers(n, workers)
	if w == 1 {
		fn(arg, 0, n)
		return
	}
	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(arg, i*n/w, (i+1)*n/w)
		}()
	}
	fn(arg, 0, n/w)
	wg.Wait()
}

// spreadItems runs fn(arg, i) for every i in [0, n) on up to workers
// goroutines, each taking the next undone item, and returns once all are
// done. Items of uneven cost, such as buckets, balance this way; callers
// size workers by the columns the items hold (spreadWorkers).
func spreadItems[A any](n, workers int, arg A, fn func(arg A, i int)) {
	w := min(workers, n)
	if w <= 1 {
		for i := range n {
			fn(arg, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(arg, i)
			}
		}()
	}
	wg.Wait()
}
