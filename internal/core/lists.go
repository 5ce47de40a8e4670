package core

import (
	"math"
	"sort"
)

// sortedLists is the per-bucket sorted-list index of §4.2 (Fig. 4c): for each
// coordinate f, the bucket's unit-direction values p̄_f (bucket.unit) paired
// with their local ids, sorted by decreasing value. Values and ids live in
// parallel arrays so COORD's id-only scans and INCR's value+id scans both
// stream contiguously.
type sortedLists struct {
	n    int
	vals []float64 // r lists of length n; list f at [f*n, (f+1)*n)
	lids []int32
}

// buildListsMinParallel is the bucket volume (n·r values) below which a
// list build stays on the calling goroutine: a small bucket sorts faster
// than its workers start.
const buildListsMinParallel = 1 << 14

// radixMin is the list length from which buildListRange sorts by radix: below
// it, clearing and summing eight 256-counter histograms per list costs more
// than a stable insertion sort of the same keys (equal at n ≈ 100, 4× at 32).
const radixMin = 96

// buildLists sorts every coordinate of the bucket into its list: values
// decreasing, ties by ascending lid — the order a stable sort of 0..n-1 by
// decreasing value yields, ±0 comparing equal, whatever `workers` is. The r
// lists are independent and split evenly over up to `workers` goroutines.
func buildLists(b *bucket, workers int) *sortedLists {
	n, r := b.size(), b.r
	sl := &sortedLists{n: n, vals: make([]float64, r*n), lids: make([]int32, r*n)}
	workers = max(1, min(workers, r))
	if n*r < buildListsMinParallel {
		workers = 1
	}
	spreadItems(workers, workers, sl, func(sl *sortedLists, _, c int) {
		buildListRange(b, sl, c*r/workers, (c+1)*r/workers)
	})
	return sl
}

// listKey maps a value to the key whose ascending unsigned order is the
// lists' decreasing value order: a negative value's bits as they are, a
// positive one's magnitude inverted under its clear sign bit. Adding 0 turns
// −0 into +0 and nothing else: the two compare equal and must tie.
func listKey(v float64) uint64 {
	u := math.Float64bits(v + 0)
	return u ^ (math.MaxInt64 &^ uint64(int64(u)>>63))
}

// buildListRange fills the lists of coordinates [f0, f1) by a stable LSD
// radix sort: a column of unit coordinates is derived once out of the
// r-strided rows and keyed, and the local ids, ascending to begin with, go
// through one counting pass per 8-bit digit of the keys, least significant
// first, so ties keep ascending lid without a comparator. A digit every key
// shares — exponent bytes of a narrow value range, low mantissa bytes of
// coarse values — is skipped. Short lists are insertion-sorted on the same
// keys (radixMin).
func buildListRange(b *bucket, sl *sortedLists, f0, f1 int) {
	n := b.size()
	col, keys, tmp, inv := make([]float64, n), make([]uint64, n), make([]int32, n), b.invLens()
	for f := f0; f < f1; f++ {
		for i := range col {
			col[i] = b.unit(i, f, inv[i])
			keys[i] = listKey(col[i])
		}
		vals, lids := sl.list(f)
		src, dst := lids, tmp
		for i := range src {
			src[i] = int32(i)
		}
		if n < radixMin {
			for i := 1; i < n; i++ {
				j, k := i, keys[i]
				for ; j > 0 && keys[src[j-1]] > k; j-- {
					src[j] = src[j-1]
				}
				src[j] = int32(i)
			}
		} else {
			var counts [8][256]int32
			for _, k := range keys {
				for d := range counts {
					counts[d][byte(k>>(8*d))]++
				}
			}
			for d := range counts {
				cnt, at := &counts[d], int32(0)
				if int(cnt[byte(keys[0]>>(8*d))]) == n {
					continue
				}
				for j, c := range cnt {
					cnt[j], at = at, at+c
				}
				for _, lid := range src {
					j := byte(keys[lid] >> (8 * d))
					dst[cnt[j]] = lid
					cnt[j]++
				}
				src, dst = dst, src
			}
		}
		for i, lid := range src { // src is lids itself after an even number of passes
			lids[i], vals[i] = lid, col[lid]
		}
	}
}

// list returns the value and id arrays of coordinate f.
func (sl *sortedLists) list(f int) (vals []float64, lids []int32) {
	return sl.vals[f*sl.n : (f+1)*sl.n], sl.lids[f*sl.n : (f+1)*sl.n]
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
