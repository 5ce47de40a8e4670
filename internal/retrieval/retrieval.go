// Package retrieval defines the result types shared by every large-entry
// retrieval algorithm in this repository (the LEMP framework and all
// standalone baselines), plus helpers for merging results across indexes
// and comparing result sets in tests.
package retrieval

import (
	"container/heap"
	"sort"
)

// Entry is one large entry of the product matrix QᵀP: the inner product of
// query vector Query and probe vector Probe.
type Entry struct {
	Query int     // column index into Q (row of QᵀP)
	Probe int     // column index into P (column of QᵀP)
	Value float64 // the inner product
}

// Sink receives result entries as they are found. Implementations must not
// retain the Entry beyond the call (it may be reused). Using a callback
// instead of materializing slices matters: the paper retrieves up to 10⁷
// entries per run.
type Sink func(Entry)

// Collect returns a Sink that appends into *dst.
func Collect(dst *[]Entry) Sink {
	return func(e Entry) { *dst = append(*dst, e) }
}

// Sort orders entries by (Query, Probe) ascending; Value is untouched. This
// canonical order makes result sets comparable across algorithms.
func Sort(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Query != entries[j].Query {
			return entries[i].Query < entries[j].Query
		}
		return entries[i].Probe < entries[j].Probe
	})
}

// TopK is the per-query result of a Row-Top-k retrieval: for each query
// vector, up to k probe entries ordered by decreasing value.
type TopK [][]Entry

// mergeHeap orders the heads of per-shard rows by decreasing value, with
// ties broken by ascending probe id so merges are deterministic.
type mergeHeap []mergeCursor

type mergeCursor struct {
	row []Entry // remaining entries of one shard's row, sorted desc
}

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	a, b := h[i].row[0], h[j].row[0]
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	return a.Probe < b.Probe
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeCursor)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// MergeTopK k-way-merges per-shard Row-Top-k results into a global one.
// Each part must hold the same number of rows (one per query), each row
// sorted by decreasing value as Row-Top-k returns it; the merged row i is
// the k largest entries across all parts' rows i, again by decreasing
// value. Probe ids are taken as-is — remap shard-local ids to global ones
// before merging.
func MergeTopK(k int, parts ...TopK) TopK {
	if len(parts) == 0 {
		return nil
	}
	rows := 0
	for _, p := range parts {
		if len(p) > rows {
			rows = len(p)
		}
	}
	out := make(TopK, rows)
	h := make(mergeHeap, 0, len(parts))
	for i := 0; i < rows; i++ {
		h = h[:0]
		for _, p := range parts {
			if i < len(p) && len(p[i]) > 0 {
				h = append(h, mergeCursor{row: p[i]})
			}
		}
		heap.Init(&h)
		// Cap the allocation by what the parts can actually supply, so an
		// oversized k cannot size the buffer off untrusted input.
		capacity := 0
		for _, c := range h {
			capacity += len(c.row)
		}
		if capacity > k {
			capacity = k
		}
		row := make([]Entry, 0, capacity)
		for len(row) < k && h.Len() > 0 {
			row = append(row, h[0].row[0])
			if h[0].row = h[0].row[1:]; len(h[0].row) == 0 {
				heap.Pop(&h)
			} else {
				heap.Fix(&h, 0)
			}
		}
		out[i] = row
	}
	return out
}

// EqualSets reports whether a and b contain the same (Query, Probe) pairs,
// ignoring order and values. It is the equivalence used by cross-algorithm
// tests for Above-θ results.
func EqualSets(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	type pair struct{ q, p int }
	seen := make(map[pair]int, len(a))
	for _, e := range a {
		seen[pair{e.Query, e.Probe}]++
	}
	for _, e := range b {
		k := pair{e.Query, e.Probe}
		seen[k]--
		if seen[k] == 0 {
			delete(seen, k)
		}
	}
	return len(seen) == 0
}
