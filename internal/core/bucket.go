package core

import (
	"math"
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

	// Sorted-list index for COORD/INCR, built lazily on first use. An
	// atomic pointer because Buckets and ListBytes read it beside retrievals
	// that build it.
	listsOnce sync.Once
	lists     atomic.Pointer[sortedLists]

	// delta marks a bucket outside the base segment, a run's (delta.go):
	// BucketInfo.Delta reports it, and pretuneDelta fits the ones the
	// frozen fit has no entry for. Its entries carry tombstones like any
	// other bucket's.
	delta bool

	// Int8 quantization sidecar of rows: the conservative screen that runs
	// ahead of exact verification (verify.go). One more lazy index — built by
	// the first (query, bucket) pair the screen pays for, so a bucket no
	// retrieval verifies never carries one — except under Options.Quantize,
	// where attachSidecars builds it before the bucket is published. An
	// atomic pointer because SidecarBytes and Buckets read it beside
	// retrievals that build it. Derived state like the lists; BucketInfo
	// reports it as Sidecar, apart from Indexed.
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

// ensureSidecar quantizes the bucket's rows on first use. The
// dimension must lie in [1, quant.MaxDim]: attachSidecars checks,
// Index.autoScreen implies it.
func (b *bucket) ensureSidecar() *quant.Rows {
	b.q8Once.Do(func() { b.q8.Store(quant.QuantizeRows(b.rows, b.r)) })
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

// bucketize sorts the n probe vectors vec(0..n-1) of dimension r by
// decreasing length and groups them into buckets per §3.2 (boundaries from
// bucketSpans), and says by column where each probe landed. lens holds
// every column's length, as vecmath.Norm computes it, all finite. ids names
// column col ids[col] in the bucket id arrays; nil uses the column numbers
// themselves. The buckets are then laid out, each on its own, and each
// member's length and row copied in catalog order, so the one large read
// streams, both steps spread over up to workers goroutines.
func bucketize(n, r int, vec func(col int) []float64, lens []float64, ids []int32, shrink float64, minSize, maxSize, workers int) ([]*bucket, []probeLoc) {
	if n == 0 {
		return nil, nil
	}
	order := byDecreasingLength(lens)
	sorted := make([]float64, n)
	for i, col := range order {
		sorted[i] = lens[col]
	}

	// What both steps read and fill.
	type layout struct {
		r            int
		order, ids   []int32
		sorted, lens []float64
		spans        [][2]int
		buckets      []*bucket
		loc          []probeLoc
		vec          func(col int) []float64
	}
	spans := bucketSpans(sorted, shrink, minSize, maxSize)
	l := layout{r: r, order: order, ids: ids, sorted: sorted, lens: lens, spans: spans,
		buckets: make([]*bucket, len(spans)), loc: make([]probeLoc, n), vec: vec}
	spreadItems(len(spans), spreadWorkers(n, workers), l, func(l layout, bi int) {
		cols := l.order[l.spans[bi][0]:l.spans[bi][1]]
		bids := make([]int32, len(cols))
		for lid, col := range cols {
			l.loc[col] = probeLoc{int32(bi), int32(lid)}
			bids[lid] = col
			if l.ids != nil {
				bids[lid] = l.ids[col]
			}
		}
		l.buckets[bi] = &bucket{r: l.r, ids: bids, lb: l.sorted[l.spans[bi][0]],
			lens: make([]float64, len(cols)), rows: make([]float64, len(cols)*l.r)}
	})
	spreadCols(n, workers, l, func(l layout, lo, hi int) {
		for col := lo; col < hi; col++ {
			at := l.loc[col]
			b := l.buckets[at.bucket]
			b.lens[at.lid] = l.lens[col]
			copy(b.row(int(at.lid)), l.vec(col))
		}
	})
	return l.buckets, l.loc
}

// byDecreasingLength returns the columns ordered by decreasing length, ties
// in column order. It is a stable LSD radix sort over ^Float64bits(length),
// which orders non-negative, non-NaN floats (a length is never -0)
// decreasingly: one pass counts all eight bytes, then one scatter pass runs
// per byte the lengths do not all share.
func byDecreasingLength(lens []float64) []int32 {
	n := len(lens)
	keys := make([]uint64, n)
	var cnt [8][256]int32
	for i, l := range lens {
		k := ^math.Float64bits(l)
		keys[i] = k
		for b := range cnt {
			cnt[b][byte(k>>(8*b))]++
		}
	}
	src, dst := identityIDs(n), make([]int32, n)
	for b := range cnt {
		shift := 8 * b
		c := &cnt[b]
		if int(c[byte(keys[0]>>shift)]) == n {
			continue
		}
		at := int32(0)
		for j, x := range c {
			c[j], at = at, at+x
		}
		for _, col := range src {
			j := byte(keys[col] >> shift)
			dst[c[j]] = col
			c[j]++
		}
		src, dst = dst, src
	}
	return src
}

// bucketBytes estimates the cache footprint of one probe vector inside a
// bucket: its raw row, length, id, and sorted-list index entry per
// coordinate (value + local id).
func bucketBytes(r int) int {
	return r*8 + 8 + 4 + r*(8+4)
}
