package core

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"lemp/internal/matrix"
	"lemp/internal/quant"
	"lemp/internal/vecmath"
)

// bucket holds a group of probe vectors of similar length (§3.2, Fig. 4a):
// original column ids, lengths sorted in decreasing order, and the
// normalized directions, plus lazily built per-bucket indexes.
type bucket struct {
	r    int
	ids  []int32   // original probe column numbers, by decreasing length
	lens []float64 // vector lengths, decreasing
	dirs []float64 // normalized vectors, contiguous (size() × r)
	lb   float64   // length of the longest vector

	// Sorted-list index for COORD/INCR, built lazily on first use. An
	// atomic pointer because State reads it beside retrievals that build it.
	listsOnce sync.Once
	lists     atomic.Pointer[sortedLists]

	// delta marks a bucket outside the base segment, a run's (delta.go):
	// BucketInfo.Delta reports it, and pretuneDelta fits the ones the
	// frozen fit has no entry for. Its entries carry tombstones like any
	// other bucket's.
	delta bool

	// Int8 quantization sidecar of dirs: the conservative screen that runs
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

// dir returns the normalized vector with bucket-local id lid.
func (b *bucket) dir(lid int) []float64 {
	return b.dirs[lid*b.r : (lid+1)*b.r : (lid+1)*b.r]
}

// ensureLists builds the sorted-list index on first use, over up to
// `workers` goroutines: the scan paths pass 1, the tuning pass — which builds
// most lists, and only for a bucket it is about to observe (tune) — the
// call's parallelism. A bucket restored from a snapshot that persisted its
// lists (SLST section) arrives with b.lists pre-populated and skips the build.
func (b *bucket) ensureLists(workers int) *sortedLists {
	b.listsOnce.Do(func() {
		if b.lists.Load() == nil {
			b.lists.Store(buildLists(b, workers))
		}
	})
	return b.lists.Load()
}

// ensureSidecar quantizes the bucket's directions on first use. The
// dimension must lie in [1, quant.MaxDim]: attachSidecars checks,
// Index.autoScreen implies it.
func (b *bucket) ensureSidecar() *quant.Rows {
	b.q8Once.Do(func() { b.q8.Store(quant.QuantizeRows(b.dirs, b.r)) })
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

// bucketize sorts the probe vectors by decreasing length and groups them
// into buckets per §3.2 (boundaries from bucketSpans), and says by column
// where each probe landed. lens holds every column's length, as
// p.Lengths() computes it, all finite. extIDs names column col extIDs[col]
// in the bucket id arrays; nil uses the column numbers themselves. Each
// member's length and direction (its column scaled by the inverse length,
// vecmath.Normalize's bits) are then written in catalog order, so the one
// large read streams.
func bucketize(p *matrix.Matrix, lens []float64, extIDs []int32, shrink float64, minSize, maxSize int) ([]*bucket, []probeLoc) {
	n, r := p.N(), p.R()
	if n == 0 {
		return nil, nil
	}
	order := byDecreasingLength(lens)
	sorted := make([]float64, n)
	for i, col := range order {
		sorted[i] = lens[col]
	}

	var buckets []*bucket
	loc := make([]probeLoc, n)
	for _, sp := range bucketSpans(sorted, shrink, minSize, maxSize) {
		cols := order[sp[0]:sp[1]]
		ids := make([]int32, len(cols))
		for lid, col := range cols {
			loc[col] = probeLoc{int32(len(buckets)), int32(lid)}
			ids[lid] = col
			if extIDs != nil {
				ids[lid] = extIDs[col]
			}
		}
		buckets = append(buckets, &bucket{r: r, ids: ids, lb: sorted[sp[0]],
			lens: make([]float64, len(cols)), dirs: make([]float64, len(cols)*r)})
	}
	for col, at := range loc {
		b, l := buckets[at.bucket], lens[col]
		b.lens[at.lid] = l
		if l != 0 { // a zero vector has the zero direction, already in place
			vecmath.Scale(b.dir(int(at.lid)), p.Vec(col), 1/l)
		}
	}
	return buckets, loc
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
// bucket: its normalized direction, length, id, and sorted-list index entry
// per coordinate (value + local id).
func bucketBytes(r int) int {
	return r*8 + 8 + 4 + r*(8+4)
}
