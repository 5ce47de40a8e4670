package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"lemp/internal/quant"
)

// bucket holds a group of probe vectors of similar length (§3.2, Fig. 4a):
// their external ids, lengths sorted in decreasing order and raw rows in the
// same order — the index's one copy of each probe, from which whatever needs
// a unit coordinate derives it — plus lazily built per-bucket indexes.
type bucket struct {
	r    int
	ids  []int32   // external probe ids, by decreasing length
	lens []float64 // vector lengths, decreasing
	rows []float64 // raw vectors, contiguous (size() × r), in lens's order
	lb   float64   // length of the longest vector

	// maxAbs is the largest |x| of rows, from the pass that computed the
	// lengths (vecmath.NormMaxAbs): the int8 sidecar's step, so that
	// quantizing reads the rows once.
	maxAbs float64

	// Sorted-list index for COORD/INCR, built lazily on first use. An
	// atomic pointer because Buckets and ListBytes read it beside retrievals
	// that build it.
	listsOnce sync.Once
	lists     atomic.Pointer[sortedLists]

	// delta marks a bucket outside the base segment, a run's (delta.go),
	// which BucketInfo.Delta reports. Its entry in a frozen fit is untuned
	// (it scans on the defaults) until Compact rewrites it into the base,
	// and its entries carry tombstones like any other bucket's.
	delta bool

	// Int8 quantization sidecar of rows: the conservative screen that runs
	// ahead of exact verification (verify.go). One more lazy index — built by
	// the first (query, bucket) pair the screen covers (sidecarFor), or by the
	// tuner before it times the bucket, so a bucket no retrieval screens
	// never carries one, whatever the options. An atomic pointer because
	// SidecarBytes and Buckets read it beside retrievals that build it.
	// Derived state like the lists; BucketInfo reports it as Sidecar, apart
	// from Indexed.
	q8Once sync.Once
	q8     atomic.Pointer[quant.Rows]
}

func (b *bucket) size() int { return len(b.ids) }

// row returns the raw vector with bucket-local id lid.
func (b *bucket) row(lid int) []float64 {
	return b.rows[lid*b.r : (lid+1)*b.r : (lid+1)*b.r]
}

// invLens returns each entry's factor from row to unit direction: 1/len,
// the factor vecmath.Normalize multiplies by, or 0 for a zero-length row.
func (b *bucket) invLens() []float64 {
	inv := make([]float64, b.size())
	for lid, l := range b.lens {
		if l != 0 {
			inv[lid] = 1 / l
		}
	}
	return inv
}

// unit returns coordinate f of entry lid's unit direction, inv being its
// invLens factor: vecmath.Normalize's bits, +0 for a zero-length row.
func (b *bucket) unit(lid, f int, inv float64) float64 {
	if inv == 0 {
		return 0
	}
	return b.rows[lid*b.r+f] * inv
}

// ensureLists builds the sorted-list index on first use, over up to
// `workers` goroutines: the scan paths pass 1, the tuning pass — which builds
// most lists, and only for a bucket it is about to observe (tune) — the
// call's parallelism. A snapshot restore builds none: they are built on first
// use after it, as after a build.
func (b *bucket) ensureLists(workers int) *sortedLists {
	b.listsOnce.Do(func() { b.lists.Store(buildLists(b, workers)) })
	return b.lists.Load()
}

// ensureSidecar quantizes the bucket's rows on first use, at the step its
// maxAbs sets. The dimension must lie in [1, quant.MaxDim], as a non-zero
// Index.screenMin implies (screenRule).
func (b *bucket) ensureSidecar() *quant.Rows {
	b.q8Once.Do(func() { b.q8.Store(quant.QuantizeRowsMax(b.rows, b.r, b.maxAbs)) })
	return b.q8.Load()
}

// lengthPrefix returns the number of leading vectors with length ≥ minLen
// (the LENGTH scan boundary: lens is sorted decreasingly).
func (b *bucket) lengthPrefix(minLen float64) int {
	return sort.Search(b.size(), func(i int) bool { return b.lens[i] < minLen })
}

// bucketSpans computes the bucket boundaries of §3.2 over lengths already
// sorted in decreasing order: span [start, end) becomes one bucket. A new
// bucket starts when the length drops below shrink·l_b or the bucket would
// exceed maxSize vectors; every bucket holds at least minSize vectors and a
// too-short tail is absorbed into the last bucket. maxSize ≤ 0 means
// unlimited.
func bucketSpans(sortedLens []float64, shrink float64, minSize, maxSize int) [][2]int {
	n := len(sortedLens)
	var spans [][2]int
	for start := 0; start < n; {
		lb := sortedLens[start]
		end := start + 1
		for end < n {
			size := end - start
			if maxSize > 0 && size >= maxSize {
				break
			}
			if size >= minSize && sortedLens[end] < shrink*lb {
				break
			}
			end++
		}
		if n-end < minSize && (maxSize <= 0 || end-start+(n-end) <= 2*maxSize) {
			end = n // absorb a short tail
		}
		spans = append(spans, [2]int{start, end})
		start = end
	}
	return spans
}

// columns is what a segment is built from: len(lens) probes, column col's
// vector vec(col), its length lens[col] (vecmath.Norm, finite) and its
// largest |x| maxAbs[col], both from one length pass (vecmath.NormMaxAbs), and
// its name ids[col], nil meaning col itself. byID lists the columns by
// ascending id, nil when the ids ascend (columnsByID). arena, when not nil,
// is the caller's matrix that vec reads, r values per column, column after
// column, handed over with lens and ids: the segment may keep its rows
// there.
type columns struct {
	vec          func(col int) []float64
	lens, maxAbs []float64
	ids, byID    []int32
	arena        []float64
}

// bucketize sorts the probes of c by decreasing length, ties in column
// order, groups them into buckets of dimension r per §3.2 (boundaries from
// bucketSpans), and says by column where each probe landed. Where c hands
// over its arena and its lengths are already non-increasing — a restore of
// a file written in scan order — the sort is the identity and each bucket
// is a window of the arena, its lengths and ids windows of c's, capacity
// cut at its end: nothing is sorted, allocated per bucket or copied.
// Otherwise the buckets are laid out, each on its own, and each member's
// length and row copied in catalog order, so the one large read streams,
// both steps spread over up to workers goroutines. Either way a bucket's
// maxAbs is the largest of its members'.
func bucketize(c columns, r int, shrink float64, minSize, maxSize, workers int) ([]*bucket, []probeLoc) {
	n := len(c.lens)
	if n == 0 {
		return nil, nil
	}
	if c.arena != nil && slices.IsSortedFunc(c.lens, func(a, b float64) int { return cmp.Compare(b, a) }) {
		return bucketizeInPlace(c, r, shrink, minSize, maxSize)
	}
	order, sorted := byDecreasingLength(c.lens, workers)

	// What both steps read and fill.
	type layout struct {
		c       columns
		r       int
		order   []int32
		sorted  []float64
		spans   [][2]int
		buckets []*bucket
		loc     []probeLoc
	}
	spans := bucketSpans(sorted, shrink, minSize, maxSize)
	l := layout{c: c, r: r, order: order, sorted: sorted, spans: spans,
		buckets: make([]*bucket, len(spans)), loc: make([]probeLoc, n)}
	spreadItems(len(spans), spreadWorkers(n, workers), l, func(l layout, _, bi int) {
		cols := l.order[l.spans[bi][0]:l.spans[bi][1]]
		bids := make([]int32, len(cols))
		m := 0.0
		for lid, col := range cols {
			l.loc[col] = probeLoc{int32(bi), int32(lid)}
			bids[lid] = col
			if l.c.ids != nil {
				bids[lid] = l.c.ids[col]
			}
			if a := l.c.maxAbs[col]; a > m {
				m = a
			}
		}
		l.buckets[bi] = &bucket{r: l.r, ids: bids, lb: l.sorted[l.spans[bi][0]], maxAbs: m,
			lens: make([]float64, len(cols)), rows: make([]float64, len(cols)*l.r)}
	})
	spreadCols(n, workers, l, func(l layout, lo, hi int) {
		for col := lo; col < hi; col++ {
			at := l.loc[col]
			b := l.buckets[at.bucket]
			b.lens[at.lid] = l.c.lens[col]
			copy(b.row(int(at.lid)), l.c.vec(col))
		}
	})
	return l.buckets, l.loc
}

// bucketizeInPlace is bucketize over columns already in bucket order whose
// arena is handed over: bucket bi of span [lo, hi) holds columns lo..hi-1 as
// lids 0..hi-lo-1, its rows, lengths and ids windows of c's.
func bucketizeInPlace(c columns, r int, shrink float64, minSize, maxSize int) ([]*bucket, []probeLoc) {
	ids := c.ids
	if ids == nil {
		ids = identityIDs(len(c.lens))
	}
	spans := bucketSpans(c.lens, shrink, minSize, maxSize)
	buckets, loc := make([]*bucket, len(spans)), make([]probeLoc, len(c.lens))
	for bi, sp := range spans {
		lo, hi := sp[0], sp[1]
		m := 0.0
		for col := lo; col < hi; col++ {
			loc[col] = probeLoc{int32(bi), int32(col - lo)}
			if a := c.maxAbs[col]; a > m {
				m = a
			}
		}
		buckets[bi] = &bucket{r: r, ids: ids[lo:hi:hi], lens: c.lens[lo:hi:hi], rows: c.arena[lo*r : hi*r : hi*r],
			lb: c.lens[lo], maxAbs: m}
	}
	return buckets, loc
}

// lenKey is a column's sort key, ^Float64bits of its length, which orders
// non-negative, non-NaN floats (a length is never -0) decreasingly, beside
// the column.
type lenKey struct {
	key uint64
	col int32
}

// byDecreasingLength returns the columns ordered by decreasing length, ties
// in column order, and the lengths in that order. It is a stable MSD radix
// sort over (key, column) pairs (lenKey) spread over up to workers
// goroutines: the columns are cut into contiguous chunks, which find their
// smallest and largest key, count their top digits and scatter their pairs
// — each chunk's first slot per digit taken digit by digit, chunks in order
// within a digit, so equal digits keep their order — and the digits' runs
// are then sorted (sortKeys) and written out, each chunk taking the runs
// that start in it. A digit is the top bits of the key's offset from the
// smallest key, about a quarter as many digit values as columns (at most
// 2¹³, 32 KiB of counts per chunk): lengths in a few binades spread over
// many digits even where they straddle a power of two. Fewer than spreadMinCols columns go to sortKeys
// whole. The result does not depend on workers.
func byDecreasingLength(lens []float64, workers int) (order []int32, sorted []float64) {
	n := len(lens)
	if n < spreadMinCols { // an update's run, say: sortKeys alone, in three allocations
		pairs := make([]lenKey, 2*n)
		for col, l := range lens {
			pairs[col] = lenKey{^math.Float64bits(l), int32(col)}
		}
		sortKeys(pairs[:n], pairs[n:], false)
		order, sorted = make([]int32, n), make([]float64, n)
		for i, e := range pairs[:n] {
			order[i], sorted[i] = e.col, math.Float64frombits(^e.key)
		}
		return order, sorted
	}
	w := spreadWorkers(n, workers)
	s := &lenSort{lens: lens, w: w, lo: make([]uint64, w), hi: make([]uint64, w),
		order: make([]int32, n), sorted: make([]float64, n)}
	spreadItems(w, w, s, func(s *lenSort, _, c int) {
		lo, hi := s.chunk(c)
		kmin, kmax := ^uint64(0), uint64(0)
		for _, l := range s.lens[lo:hi] {
			k := ^math.Float64bits(l)
			kmin, kmax = min(kmin, k), max(kmax, k)
		}
		s.lo[c], s.hi[c] = kmin, kmax
	})
	s.width = min(13, bits.Len(uint(n))-2)
	s.min, s.shift = slices.Min(s.lo), keyShift(slices.Min(s.lo), slices.Max(s.hi), s.width)
	digits := 1 << s.width
	s.tmp = make([]lenKey, n)
	s.cnt, s.start = make([]int32, w*digits), make([]int32, digits+1)
	spreadItems(w, w, s, func(s *lenSort, _, c int) {
		lo, hi := s.chunk(c)
		cnt, kmin, shift := s.counts(c), s.min, s.shift
		for _, l := range s.lens[lo:hi] {
			cnt[(^math.Float64bits(l)-kmin)>>shift]++
		}
	})
	at := int32(0)
	for d := range digits {
		s.start[d] = at
		for c := range w {
			cnt := s.counts(c)
			at, cnt[d] = at+cnt[d], at
		}
	}
	s.start[digits] = at
	spreadItems(w, w, s, func(s *lenSort, _, c int) {
		lo, hi := s.chunk(c)
		cnt, kmin, shift, tmp := s.counts(c), s.min, s.shift, s.tmp
		for col := lo; col < hi; col++ {
			k := ^math.Float64bits(s.lens[col])
			d := (k - kmin) >> shift
			tmp[cnt[d]] = lenKey{k, int32(col)}
			cnt[d]++
		}
	})
	spreadItems(w, w, s, func(s *lenSort, _, c int) {
		lo, hi := s.chunk(c)
		// The runs that start in this chunk: each run belongs to one chunk.
		dlo, _ := slices.BinarySearch(s.start, int32(lo))
		dhi, _ := slices.BinarySearch(s.start, int32(hi))
		dhi = min(dhi, len(s.start)-1)
		longest := int32(0)
		for d := dlo; d < dhi; d++ {
			longest = max(longest, s.start[d+1]-s.start[d])
		}
		scratch := make([]lenKey, longest)
		for d := dlo; d < dhi; d++ {
			at := int(s.start[d])
			run := s.tmp[at:s.start[d+1]]
			if s.shift > 0 && len(run) > 1 {
				sortKeys(run, scratch[:len(run)], true)
				run = scratch[:len(run)]
			}
			for i, e := range run {
				s.order[at+i], s.sorted[at+i] = e.col, math.Float64frombits(^e.key)
			}
		}
	})
	return s.order, s.sorted
}

// lenSort is what byDecreasingLength's phases read and fill: the pairs by
// their top digit (tmp), each digit's first slot (start), and per chunk —
// chunk c being columns [c·n/w, (c+1)·n/w) — its smallest and largest key
// and its count, then its next slot, per digit.
type lenSort struct {
	lens   []float64
	tmp    []lenKey
	w      int
	lo, hi []uint64
	min    uint64
	width  int // the top digit is (key − min) >> shift, width bits wide
	shift  int
	cnt    []int32
	start  []int32
	order  []int32
	sorted []float64
}

// chunk returns chunk c's range of columns.
func (s *lenSort) chunk(c int) (lo, hi int) {
	n := len(s.lens)
	return c * n / s.w, (c + 1) * n / s.w
}

// counts returns chunk c's count per digit.
func (s *lenSort) counts(c int) []int32 {
	return s.cnt[c<<s.width : (c+1)<<s.width]
}

// keyShift returns the shift that leaves the top width bits of the largest
// offset hi − lo: 0 where the offsets fit width bits, each digit value then
// one key.
func keyShift(lo, hi uint64, width int) int {
	return max(bits.Len64(hi-lo)-width, 0)
}

// sortKeys sorts the pairs of a stably by key, with tmp (as long as a) as
// scratch, and leaves them in tmp when toTmp, else in a. Up to 16 pairs are
// insertion-sorted; more are scattered into tmp by a digit of their own
// (byDecreasingLength's, about half as many digit values as pairs), and
// each digit's run is sorted in turn the other way round.
func sortKeys(a, tmp []lenKey, toTmp bool) {
	if len(a) <= 16 {
		for i := 1; i < len(a); i++ {
			for j := i; j > 0 && a[j-1].key > a[j].key; j-- {
				a[j-1], a[j] = a[j], a[j-1]
			}
		}
		if toTmp {
			copy(tmp, a)
		}
		return
	}
	kmin, kmax := a[0].key, a[0].key
	for _, e := range a {
		kmin, kmax = min(kmin, e.key), max(kmax, e.key)
	}
	width := min(8, bits.Len(uint(len(a)))-1)
	shift := keyShift(kmin, kmax, width)
	var next [257]int32
	for _, e := range a {
		next[(e.key-kmin)>>shift+1]++
	}
	for d := 1; d <= 1<<width; d++ {
		next[d] += next[d-1]
	}
	start := next
	for _, e := range a {
		d := (e.key - kmin) >> shift
		tmp[next[d]] = e
		next[d]++
	}
	if shift == 0 { // every digit's run holds one key
		if !toTmp {
			copy(a, tmp)
		}
		return
	}
	for d := range 1 << width {
		switch lo, hi := start[d], start[d+1]; hi - lo {
		case 0:
		case 1:
			if !toTmp {
				a[lo] = tmp[lo]
			}
		default:
			sortKeys(tmp[lo:hi], a[lo:hi], !toTmp)
		}
	}
}

// bucketBytes estimates the cache footprint of one probe vector inside a
// bucket: its raw row, length, id, and sorted-list index entry per
// coordinate (value + local id).
func bucketBytes(r int) int {
	return r*8 + 8 + 4 + r*(8+4)
}
