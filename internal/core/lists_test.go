package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func testBucket(rng *rand.Rand, n, r int) *bucket {
	p := randomProbe(rng, n, r, 0.5)
	buckets, _ := bucketizeMatrix(p, nil, 0, 1, 0) // single bucket holding everything
	if len(buckets) != 1 {
		panic("expected one bucket")
	}
	return buckets[0]
}

func TestSortedListsSortedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	b := testBucket(rng, 200, 7)
	sl, inv := b.ensureLists(1), b.invLens()
	for f := 0; f < b.r; f++ {
		vals, lids := sl.list(f)
		if len(vals) != b.size() || len(lids) != b.size() {
			t.Fatalf("list %d has %d entries", f, len(vals))
		}
		if !sort.IsSorted(sort.Reverse(sort.Float64Slice(vals))) {
			t.Fatalf("list %d not sorted decreasingly", f)
		}
		// Every lid appears exactly once and carries its own value.
		seen := make([]bool, b.size())
		for i, lid := range lids {
			if seen[lid] {
				t.Fatalf("list %d: duplicate lid %d", f, lid)
			}
			seen[lid] = true
			if vals[i] != b.unit(int(lid), f, inv[lid]) {
				t.Fatalf("list %d entry %d: value mismatch", f, i)
			}
		}
	}
}

// referenceLists defines the list order: a stable sort of the local ids by
// decreasing value, one coordinate at a time.
func referenceLists(b *bucket) *sortedLists {
	n, r := b.size(), b.r
	sl := &sortedLists{n: n, vals: make([]float64, r*n), lids: make([]int32, r*n)}
	perm, inv := make([]int32, n), b.invLens()
	for f := 0; f < r; f++ {
		for i := range perm {
			perm[i] = int32(i)
		}
		unit := func(lid int32) float64 { return b.unit(int(lid), f, inv[lid]) }
		sort.SliceStable(perm, func(x, y int) bool { return unit(perm[x]) > unit(perm[y]) })
		vals, lids := sl.list(f)
		for i, lid := range perm {
			lids[i], vals[i] = lid, unit(lid)
		}
	}
	return sl
}

// The radix build must order every list exactly as the stable sort does —
// ties, which snapshots persist, included: duplicated values and ±0 (equal
// under >, different bits) keep ascending local id. Serial and parallel
// builds alike, at sizes around one digit's 256 counters and past 65 535
// entries, on columns that leave the sort nothing to do (all equal, ±0 only),
// that differ in the last mantissa bit alone, and on denormals; and over
// random finite bit patterns. checkLists, the snapshot reader's test of a
// list index, must accept every one built.
func TestBuildListsMatchesStableSort(t *testing.T) {
	check := func(name string, b *bucket) {
		t.Helper()
		want := referenceLists(b)
		seen := make([]bool, b.size())
		for _, workers := range []int{1, 2, 4, 64} {
			got := buildLists(b, workers)
			if !slices.Equal(got.lids, want.lids) {
				t.Fatalf("%s workers=%d: local ids differ from the stable sort", name, workers)
			}
			for i := range want.vals {
				if math.Float64bits(got.vals[i]) != math.Float64bits(want.vals[i]) {
					t.Fatalf("%s workers=%d: value %d is %v, stable sort has %v", name, workers, i, got.vals[i], want.vals[i])
				}
			}
			if err := checkLists(got.vals, got.lids, b, seen); err != nil {
				t.Fatalf("%s workers=%d: checkLists: %v", name, workers, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(85))
	for _, shape := range []struct{ n, r int }{{1, 3}, {2, 3}, {37, 5}, {255, 4}, {256, 4}, {257, 4}, {2072, 9}, {70000, 2}} {
		b := testBucket(rng, shape.n, shape.r)
		check(fmt.Sprintf("n=%d r=%d", shape.n, shape.r), b)
		// Coarsen the rows so values collide, and plant signed zeros; at
		// length 1 a row is its own unit direction, bit for bit.
		for i := range b.rows {
			switch v := math.Round(b.rows[i]*4) / 4; {
			case v == 0 && rng.Intn(2) == 0:
				b.rows[i] = math.Copysign(0, -1)
			default:
				b.rows[i] = v
			}
		}
		unitLengths(b)
		check(fmt.Sprintf("n=%d r=%d coarse", shape.n, shape.r), b)
	}

	// One column per hard case, insertion-sorted and radix-sorted.
	const tiny = 5e-324 // the smallest denormal
	for _, n := range []int{radixMin / 2, 3 * radixMin} {
		b := testBucket(rng, n, 5)
		unitLengths(b)
		for i := 0; i < n; i++ {
			d := b.row(i)
			d[0] = 0.25                                                              // all equal
			d[1] = math.Copysign(0, float64(rng.Intn(2))-0.5)                        // ±0 only
			d[2] = math.Float64frombits(math.Float64bits(0.5) + uint64(rng.Intn(4))) // last mantissa bits
			d[3] = tiny * float64(rng.Intn(7)-3)                                     // denormals around ±0
			d[4] = float64(rng.Intn(5)-2) / 2                                        // duplicates
		}
		check(fmt.Sprintf("hard columns, n=%d", n), b)
	}

	prop := func(bits []uint64, long bool) bool {
		for long && len(bits) < 2*radixMin { // quick's slices are short: insertion-sorted
			bits = append(bits, rng.Uint64())
		}
		if len(bits) == 0 {
			return true
		}
		b := &bucket{r: 1, ids: make([]int32, len(bits)), lens: make([]float64, len(bits)), rows: make([]float64, len(bits))}
		unitLengths(b)
		for i, u := range bits {
			if u>>52&0x7ff == 0x7ff {
				u &^= 1 << 52 // Inf or NaN: make it finite
			}
			b.rows[i] = math.Float64frombits(u)
		}
		check("random bit patterns", b)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// unitLengths sets every length of b to 1, so that the values a test plants
// in a row are its unit coordinates as they are.
func unitLengths(b *bucket) {
	for i := range b.lens {
		b.lens[i] = 1
	}
}

func TestEnsureListsIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	b := testBucket(rng, 50, 4)
	first := b.ensureLists(1)
	if second := b.ensureLists(1); second != first {
		t.Error("ensureLists rebuilt the index")
	}
}

func TestScanRangeMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	b := testBucket(rng, 300, 5)
	sl := b.ensureLists(1)
	for trial := 0; trial < 500; trial++ {
		f := rng.Intn(b.r)
		lo := rng.Float64()*2 - 1
		hi := lo + rng.Float64()*(1-lo)
		start, end := sl.scanRange(f, lo, hi)
		vals, _ := sl.list(f)
		for i, v := range vals {
			inRange := v >= lo && v <= hi
			inScan := i >= start && i < end
			if inRange != inScan {
				t.Fatalf("f=%d [%g,%g]: index %d value %g inRange=%v inScan=%v (range [%d,%d))",
					f, lo, hi, i, v, inRange, inScan, start, end)
			}
		}
	}
}

// Property: scan ranges are consistent for arbitrary bounds, including
// inverted and out-of-range ones.
func TestScanRangeQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	b := testBucket(rng, 120, 3)
	sl := b.ensureLists(1)
	f := func(loRaw, hiRaw int8, coord uint8) bool {
		lo := float64(loRaw) / 64
		hi := float64(hiRaw) / 64
		fc := int(coord) % b.r
		start, end := sl.scanRange(fc, lo, hi)
		if start > end || start < 0 || end > b.size() {
			return false
		}
		vals, _ := sl.list(fc)
		for i := start; i < end; i++ {
			if vals[i] < lo || vals[i] > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestSelectFocus(t *testing.T) {
	s := newScratch(10, 6)
	qdir := []float64{0.1, -0.9, 0.3, 0.0, -0.2, 0.8}
	s.selectFocus(qdir, 3)
	if len(s.focus) != 3 {
		t.Fatalf("focus size %d", len(s.focus))
	}
	want := []int32{1, 5, 2} // |values| 0.9, 0.8, 0.3
	for i, f := range want {
		if s.focus[i] != f {
			t.Fatalf("focus %v, want %v", s.focus, want)
		}
	}
	// φ larger than r.
	s.selectFocus(qdir, 10)
	if len(s.focus) != 6 {
		t.Errorf("focus size %d with φ>r", len(s.focus))
	}
	// Deterministic on ties and reuse of the same scratch.
	s.selectFocus(qdir, 3)
	s.selectFocus(qdir, 3)
	if len(s.focus) != 3 || s.focus[0] != 1 {
		t.Errorf("reuse broke selection: %v", s.focus)
	}
}
