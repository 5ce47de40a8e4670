package core

import (
	"lemp/internal/quant"
	"lemp/internal/topk"
)

// scratch holds all per-worker mutable state so the retrieval phase does no
// allocation per (query, bucket) pair and workers never share memory.
//
// The CP arrays (cp, cpdot, cpsq) use the appendix's no-clear trick: the
// first scanned list *sets* entries, later lists accumulate, and the final
// filter re-reads only the first list's scan range — entries outside it are
// never read, so stale values are harmless and nothing is ever cleared.
type scratch struct {
	cp    []int32   // COORD counters
	cpdot []float64 // INCR partial inner products q̄_Fᵀp̄_F
	cpsq  []float64 // INCR partial squared norms ‖p̄_F‖²

	cand []int32   // candidate local ids of the current (query, bucket) pair
	vals []float64 // blocked-verification dot products, parallel to cand

	// prefix is set when the candidates are the bucket's first len(cand)
	// rows in order — LENGTH's prefix, the whole-bucket fallback. Those
	// generators record only the count (setPrefix): cand has the right
	// length but its elements are not written, so readers go through lid.
	// The flag survives the int8 screen, then tombstone compaction, only
	// while they drop nothing; while it is set, verification is one panel
	// product over the head of b.rows.
	prefix bool

	focus      []int32 // focus coordinates, by decreasing |q̄_f|
	focusAbs   []float64
	rangeStart []int
	rangeEnd   []int

	// The call's candidate generator as this worker runs it (RunOptions.Gen),
	// made on the worker's first pair and dropped when the scratch returns
	// to the pool.
	gen GenFunc

	// Per-tile query state. The tile kernel is bucket-outer /
	// query-inner, so whatever is derived from a query alone must be kept
	// for every query of the worker's tile, not for the last one seen: row
	// t belongs to sorted query tileLo+t. The quantized codes fill lazily on
	// a row's first use (tileHave records it), so they are computed once per
	// query per call; the arrays grow to the largest tile the scratch has
	// served and are pooled with it.
	tileLo    int32
	tileHave  []uint8       // one per tile row: haveQ8 | q8OK
	tileQ8    []quant.Query // quantized queries; Codes alias tileCodes
	tileCodes []int8        // tile rows × r

	// Tile kernel state (scanTile): one bounded heap per tile row under
	// Row-Top-k, and the rows whose cut has not yet pruned the rest of the
	// scan, in query order.
	heaps  []topk.Heap
	active []int32

	// The queued int8 screens (scan.go, "Blocked screens"): up to four
	// pairs of one bucket and one survivor buffer of maxBucket rows per
	// slot, made on the slot's first queued pair.
	blk      quant.Block
	blkPairs [4]blockPair
	blkRows  [4][]int32

	work int64 // deterministic cost counter for TuneByCost

	// Sizing the scratch was built for, checked when a pooled scratch is
	// handed to a call: an index whose bucket layout grew past it discards
	// it instead of reusing undersized arrays.
	maxBucket int
	r         int
}

func newScratch(maxBucket, r int) *scratch {
	return &scratch{
		cp:         make([]int32, maxBucket),
		cpdot:      make([]float64, maxBucket),
		cpsq:       make([]float64, maxBucket),
		cand:       make([]int32, 0, maxBucket),
		focus:      make([]int32, 0, r),
		focusAbs:   make([]float64, 0, r),
		rangeStart: make([]int, r),
		rangeEnd:   make([]int, r),
		maxBucket:  maxBucket,
		r:          r,
	}
}

// getScratch hands out a pooled per-worker scratch, falling back to a fresh
// allocation when the pool is empty or the index's bucket layout outgrew the
// pooled sizing (a relative's, or this index's before a batch). Pooling keeps
// steady-state serving load allocation-free: repeated retrieval calls on an
// index and its relatives stop paying the O(maxBucket) scratch setup per
// call.
func (ix *Index) getScratch() *scratch {
	if v := ix.scratchPool.Get(); v != nil {
		s := v.(*scratch)
		if s.maxBucket >= ix.maxBucket && s.r == ix.r {
			// Per-call state must not leak across calls: the tile caches
			// are keyed by a query index whose meaning is call-local
			// (beginTile re-arms them), and the cost counter restarts per
			// call.
			s.tileHave = s.tileHave[:0]
			s.work = 0
			return s
		}
	}
	return newScratch(ix.maxBucket, ix.r)
}

// putScratch returns a scratch to the pool once its worker is done.
func (ix *Index) putScratch(s *scratch) {
	s.gen = nil
	ix.scratchPool.Put(s)
}

// resetCands empties the candidate set for a generator that appends lids.
func (s *scratch) resetCands() {
	s.cand = s.cand[:0]
	s.prefix = false
}

// setPrefix makes lids 0..n-1 the candidate set without writing them; cand
// holds a whole bucket from the start (newScratch).
func (s *scratch) setPrefix(n int) {
	s.cand = s.cand[:n]
	s.prefix = true
}

// lid returns the local id of candidate i.
func (s *scratch) lid(i int) int32 {
	if s.prefix {
		return int32(i)
	}
	return s.cand[i]
}

// dropTo keeps the first k entries an in-place filter left in cand; a
// filter that dropped anything ends a recorded prefix.
func (s *scratch) dropTo(k int) {
	if k < len(s.cand) {
		s.prefix = false
	}
	s.cand = s.cand[:k]
}

// tileHave bits.
const (
	haveQ8 uint8 = 1 << iota // quantization of the row was attempted
	q8OK                     // ... and produced usable codes
)

// beginTile re-arms the per-tile query caches for sorted queries
// [lo, lo+n): every row starts with nothing derived and no screen queued.
func (s *scratch) beginTile(lo, n int) {
	s.blk.Reset() // a canceled tile may have left screens queued
	s.tileLo = int32(lo)
	if cap(s.tileHave) < n {
		s.tileHave = make([]uint8, n)
	}
	s.tileHave = s.tileHave[:n]
	clear(s.tileHave)
}

// quantQuery returns the quantized form of query qi (sorted index inside
// the current tile, raw row qrow) and whether it is usable for screening,
// quantizing it into the tile's code buffer on first use — so a query
// crossing many buckets quantizes once, whatever the loop order.
func (s *scratch) quantQuery(qi int32, qrow []float64) (quant.Query, bool) {
	t := int(qi - s.tileLo)
	if s.tileHave[t]&haveQ8 == 0 {
		if n := len(s.tileHave); len(s.tileQ8) < n {
			s.tileQ8 = make([]quant.Query, n)
			s.tileCodes = make([]int8, n*s.r)
		}
		s.tileHave[t] |= haveQ8
		var ok bool
		if s.tileQ8[t], ok = quant.QuantizeQuery(s.tileCodes[t*s.r:(t+1)*s.r], qrow); ok {
			s.tileHave[t] |= q8OK
		}
	}
	return s.tileQ8[t], s.tileHave[t]&q8OK != 0
}

// selectFocus fills s.focus with the φ coordinates of q̄ having the largest
// absolute values (§4.2: large coordinates give the smallest feasible
// regions), by insertion into a small ordered buffer.
func (s *scratch) selectFocus(qdir []float64, phi int) {
	s.focus = s.focus[:0]
	s.focusAbs = s.focusAbs[:0]
	for f, v := range qdir {
		a := v
		if a < 0 {
			a = -a
		}
		if len(s.focus) < phi {
			s.focus = append(s.focus, int32(f))
			s.focusAbs = append(s.focusAbs, a)
		} else if a <= s.focusAbs[len(s.focusAbs)-1] {
			continue
		} else {
			s.focus[len(s.focus)-1] = int32(f)
			s.focusAbs[len(s.focusAbs)-1] = a
		}
		// Bubble the new entry to its rank (φ ≤ 5: cheap).
		for i := len(s.focus) - 1; i > 0 && s.focusAbs[i] > s.focusAbs[i-1]; i-- {
			s.focusAbs[i], s.focusAbs[i-1] = s.focusAbs[i-1], s.focusAbs[i]
			s.focus[i], s.focus[i-1] = s.focus[i-1], s.focus[i]
		}
	}
}
