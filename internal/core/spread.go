package core

import (
	"sync"
	"sync/atomic"
)

// Every fan-out of the package goes through the two helpers below. The
// build's independent work — each probe's length, the length sort's chunks
// and runs, each row's copy into its bucket, each bucket's layout and int8
// sidecar — fans out over Options.Parallelism goroutines, and so does a
// restore, which is a build. A retrieval spreads its query tiles (scan.go),
// its tuning pass's sample walks and observations (tuning.go) and the sorted
// lists of a bucket it tunes (lists.go) over the call's. Every item writes
// only its own slots, so the result does not depend on how the items were
// split. The work reaches the
// helpers as a function of an argument value rather than as a closure, so
// that a call that runs on one goroutine, as every retrieval's query
// preparation and every update of a Parallelism 1 index does, allocates
// nothing for them.

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

// spreadItems runs fn(arg, w, i) for every i in [0, n) on up to workers
// goroutines, the caller's among them, each taking the next undone item,
// and returns once all are done. w is the running goroutine's index in
// [0, min(workers, n)), for per-worker scratch and counters. Items of uneven
// cost, such as buckets or query tiles, balance this way.
func spreadItems[A any](n, workers int, arg A, fn func(arg A, w, i int)) {
	w := min(workers, n)
	if w <= 1 {
		for i := range n {
			fn(arg, 0, i)
		}
		return
	}
	var next atomic.Int64
	work := func(w int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(arg, w, i)
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(g)
		}()
	}
	work(0)
	wg.Wait()
}

// spreadScratch is spreadItems for retrieval work: fn(s, w, i) runs with
// worker w's own pooled scratch s, taken on the worker's first item and
// returned to the pool at the end.
func (ix *Index) spreadScratch(n, workers int, fn func(s *scratch, w, i int)) {
	ss := make([]*scratch, max(1, min(workers, n)))
	spreadItems(n, workers, ss, func(ss []*scratch, w, i int) {
		if ss[w] == nil {
			ss[w] = ix.getScratch()
		}
		fn(ss[w], w, i)
	})
	for _, s := range ss {
		if s != nil {
			ix.putScratch(s)
		}
	}
}
