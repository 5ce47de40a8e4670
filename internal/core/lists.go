package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// sortedLists is the per-bucket sorted-list index of §4.2 (Fig. 4c): for
// each coordinate f, the bucket's normalized values p̄_f paired with their
// local ids, sorted by decreasing value. Values and ids live in parallel
// arrays so COORD's id-only scans and INCR's value+id scans both stream
// contiguously.
type sortedLists struct {
	n    int
	vals []float64 // r lists of length n; list f at [f*n, (f+1)*n)
	lids []int32
}

// listEntry is one (value, local id) pair of a coordinate list under
// construction.
type listEntry struct {
	val float64
	lid int32
}

// buildListsMinParallel is the bucket volume (n·r values) below which a
// list build stays on the calling goroutine: a small bucket sorts faster
// than its workers start.
const buildListsMinParallel = 1 << 14

// buildLists sorts every coordinate of the bucket into its list: typed
// (value, lid) pairs by decreasing value, ties by ascending lid — the order
// a stable sort of 0..n-1 by decreasing value yields, ±0 comparing equal,
// so a rebuilt index matches a snapshotted one byte for byte. The r lists
// are independent and split evenly over up to `workers` goroutines.
func buildLists(b *bucket, workers int) *sortedLists {
	n, r := b.size(), b.r
	sl := &sortedLists{n: n, vals: make([]float64, r*n), lids: make([]int32, r*n)}
	workers = max(1, min(workers, r))
	if n*r < buildListsMinParallel {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buildListRange(b, sl, w*r/workers, (w+1)*r/workers)
		}()
	}
	buildListRange(b, sl, 0, r/workers) // the caller sorts the first share
	wg.Wait()
	return sl
}

// buildListRange fills the lists of coordinates [f0, f1).
func buildListRange(b *bucket, sl *sortedLists, f0, f1 int) {
	n, r := b.size(), b.r
	pairs := make([]listEntry, n)
	for f := f0; f < f1; f++ {
		for i := range pairs {
			pairs[i] = listEntry{val: b.dirs[i*r+f], lid: int32(i)}
		}
		slices.SortFunc(pairs, func(x, y listEntry) int {
			if x.val > y.val {
				return -1
			}
			if x.val < y.val {
				return 1
			}
			return int(x.lid) - int(y.lid)
		})
		vals, lids := sl.list(f)
		for i, e := range pairs {
			vals[i], lids[i] = e.val, e.lid
		}
	}
}

// list returns the value and id arrays of coordinate f.
func (sl *sortedLists) list(f int) (vals []float64, lids []int32) {
	return sl.vals[f*sl.n : (f+1)*sl.n], sl.lids[f*sl.n : (f+1)*sl.n]
}

// checkLists verifies a restored sorted-list index (snapshot SLST section)
// against the bucket's directions: every coordinate list must be a
// permutation of the n local ids, sorted by non-increasing value, with each
// value bit-equal to the direction entry it claims to index. These three
// invariants are exactly what scanRange and the COORD/INCR/TA scans rely
// on, so a list index passing them prunes identically to a rebuilt one
// (ties may order differently, which no scan depends on). seen must have at
// least n elements; it is clobbered.
func checkLists(vals []float64, lids []int32, dirs []float64, n, r int, seen []bool) error {
	for f := 0; f < r; f++ {
		lv := vals[f*n : (f+1)*n]
		ll := lids[f*n : (f+1)*n]
		for i := 0; i < n; i++ {
			seen[i] = false
		}
		prev := math.Inf(1)
		for i := 0; i < n; i++ {
			lid := ll[i]
			if lid < 0 || int(lid) >= n {
				return fmt.Errorf("list %d entry %d: local id %d out of range [0,%d)", f, i, lid, n)
			}
			if seen[lid] {
				return fmt.Errorf("list %d: local id %d appears twice", f, lid)
			}
			seen[lid] = true
			v := lv[i]
			if !(v <= prev) { // also rejects NaN
				return fmt.Errorf("list %d entry %d: value %v above predecessor %v (not sorted decreasingly)", f, i, v, prev)
			}
			prev = v
			if v != dirs[int(lid)*r+f] {
				return fmt.Errorf("list %d entry %d: value %v does not match direction %v of local id %d",
					f, i, v, dirs[int(lid)*r+f], lid)
			}
		}
	}
	return nil
}

// scanRange returns the half-open index range [start, end) of list f whose
// values lie in [lo, hi]. The list is sorted decreasingly, so the range
// starts at the first value ≤ hi and ends before the first value < lo.
func (sl *sortedLists) scanRange(f int, lo, hi float64) (start, end int) {
	vals, _ := sl.list(f)
	start = sort.Search(len(vals), func(i int) bool { return vals[i] <= hi })
	end = start + sort.Search(len(vals)-start, func(i int) bool { return vals[start+i] < lo })
	return start, end
}
