package core

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lemp/internal/matrix"
	"lemp/internal/vecmath"
)

func randomProbe(rng *rand.Rand, n, r int, sigma float64) *matrix.Matrix {
	return genMatrix(rng, n, r, sigma, 1, false, 0, 0)
}

func TestBucketizeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, tc := range []struct {
		n, minSize, maxSize int
		shrink              float64
	}{
		{500, 30, 100, 0.9},
		{500, 5, 20, 0.8},
		{500, 30, 0, 0.9}, // unlimited bucket size
		{40, 30, 100, 0.9},
		{1, 30, 100, 0.9},
		{0, 30, 100, 0.9},
	} {
		p := randomProbe(rng, tc.n, 8, 1.0)
		buckets, _ := bucketizeMatrix(p, nil, tc.shrink, tc.minSize, tc.maxSize)

		// Every probe vector appears in exactly one bucket.
		seen := make(map[int32]bool)
		total := 0
		for _, b := range buckets {
			total += b.size()
			for _, id := range b.ids {
				if seen[id] {
					t.Fatalf("probe %d in two buckets", id)
				}
				seen[id] = true
			}
		}
		if total != tc.n {
			t.Fatalf("buckets hold %d vectors, want %d", total, tc.n)
		}

		prevMin := math.Inf(1)
		for bi, b := range buckets {
			// Lengths sorted decreasingly inside the bucket, l_b is
			// the max, and buckets are ordered by decreasing length.
			if b.lb != b.lens[0] {
				t.Fatalf("bucket %d: lb=%g, first length %g", bi, b.lb, b.lens[0])
			}
			for i := 1; i < b.size(); i++ {
				if b.lens[i] > b.lens[i-1] {
					t.Fatalf("bucket %d: lengths not sorted", bi)
				}
			}
			if b.lens[0] > prevMin {
				t.Fatalf("bucket %d starts above previous bucket's minimum", bi)
			}
			prevMin = b.lens[b.size()-1]

			// Size constraints (the final bucket may absorb a short
			// tail, so only earlier buckets must respect them).
			if bi < len(buckets)-1 {
				if b.size() < tc.minSize && tc.n >= tc.minSize {
					t.Fatalf("bucket %d has %d < min %d vectors", bi, b.size(), tc.minSize)
				}
				if tc.maxSize > 0 && b.size() > tc.maxSize {
					t.Fatalf("bucket %d has %d > max %d vectors", bi, b.size(), tc.maxSize)
				}
			}

			// Every row is its probe's vector, bit for bit, beside its
			// length.
			for lid := 0; lid < b.size(); lid++ {
				orig := p.Vec(int(b.ids[lid]))
				if !slices.Equal(b.row(lid), orig) || b.lens[lid] != vecmath.Norm(orig) {
					t.Fatalf("bucket %d lid %d: row or length differs from the probe's", bi, lid)
				}
			}
		}
	}
}

func TestBucketizeZeroVectorsLast(t *testing.T) {
	p := matrix.New(4, 50)
	rng := rand.New(rand.NewSource(72))
	for i := 0; i < 40; i++ {
		v := p.Vec(i)
		for f := range v {
			v[f] = rng.NormFloat64()
		}
	}
	// vectors 40..49 stay zero
	buckets, _ := bucketizeMatrix(p, nil, 0.9, 5, 20)
	// Zero vectors sort last, so in the concatenated bucket order no
	// non-zero length may follow a zero length (a minimum-size bucket is
	// allowed to mix them, but only at the global tail).
	zeros := 0
	sawZero := false
	for _, b := range buckets {
		for lid := 0; lid < b.size(); lid++ {
			if b.lens[lid] == 0 {
				zeros++
				sawZero = true
			} else if sawZero {
				t.Fatal("non-zero vector after a zero vector in bucket order")
			}
		}
	}
	if zeros != 10 {
		t.Fatalf("found %d zero vectors, want 10", zeros)
	}
}

func TestLengthPrefix(t *testing.T) {
	b := &bucket{ids: make([]int32, 5), lens: []float64{5, 4, 4, 2, 1}}
	cases := []struct {
		min  float64
		want int
	}{
		{6, 0}, {5, 1}, {4.5, 1}, {4, 3}, {2, 4}, {0.5, 5}, {math.Inf(-1), 5},
	}
	for _, c := range cases {
		if got := b.lengthPrefix(c.min); got != c.want {
			t.Errorf("lengthPrefix(%g)=%d want %d", c.min, got, c.want)
		}
	}
}

func TestBucketBytesReasonable(t *testing.T) {
	// 50-dim: direction 400B + length 8 + id 4 + lists 600 = 1012.
	if got := bucketBytes(50); got != 50*8+8+4+50*12 {
		t.Errorf("bucketBytes(50)=%d", got)
	}
}

func TestCacheBudgetControlsBucketCount(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	p := randomProbe(rng, 3000, 10, 0.1) // low skew: shrink rarely triggers
	small, _ := NewIndex(p, Options{CacheBytes: bucketBytes(10) * 50, MinBucketSize: 5})
	big, _ := NewIndex(p, Options{CacheBytes: -1, MinBucketSize: 5})
	if small.NumBuckets() <= big.NumBuckets() {
		t.Errorf("cache budget did not increase bucket count: %d vs %d",
			small.NumBuckets(), big.NumBuckets())
	}
	if got := len(big.Buckets()); got != big.NumBuckets() {
		t.Errorf("Buckets length %d != NumBuckets %d", got, big.NumBuckets())
	}
}

// bucketizeMatrix is bucketize over the columns of p.
func bucketizeMatrix(p *matrix.Matrix, ids []int32, shrink float64, minSize, maxSize int) ([]*bucket, []probeLoc) {
	return bucketize(matrixColumns(p, ids), p.R(), shrink, minSize, maxSize, 1)
}

// matrixColumns is the columns of p as a build hands them to bucketize,
// named by ids (nil: the column numbers), its matrix not handed over.
func matrixColumns(p *matrix.Matrix, ids []int32) columns {
	maxAbs := make([]float64, p.N())
	for col := range maxAbs {
		maxAbs[col] = maxAbsOf(p.Vec(col))
	}
	return columns{vec: p.Vec, lens: p.Lengths(), maxAbs: maxAbs, ids: ids}
}

// maxAbsOf is the largest |x| of v, 0 for an empty v.
func maxAbsOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = max(m, math.Abs(x))
	}
	return m
}

// oracleBucketize is bucketize as it stood before the radix sort and the
// catalog-order fill: a reflective stable sort of the columns by decreasing
// length, then every bucket filled member by member in bucket order, its
// maxAbs taken over its rows as one panel.
// TestBucketizeMatchesOracle holds the two to the same bits.
func oracleBucketize(p *matrix.Matrix, extIDs []int32, shrink float64, minSize, maxSize int) ([]*bucket, []probeLoc) {
	n := p.N()
	if n == 0 {
		return nil, nil
	}
	order := identityIDs(n)
	lens := p.Lengths()
	sort.SliceStable(order, func(a, b int) bool { return lens[order[a]] > lens[order[b]] })
	sorted := make([]float64, n)
	for i, id := range order {
		sorted[i] = lens[id]
	}
	var buckets []*bucket
	loc := make([]probeLoc, n)
	for _, sp := range bucketSpans(sorted, shrink, minSize, maxSize) {
		cols := order[sp[0]:sp[1]]
		b := &bucket{r: p.R(), ids: make([]int32, len(cols)), lens: make([]float64, len(cols)), rows: make([]float64, len(cols)*p.R())}
		for lid, col := range cols {
			loc[col] = probeLoc{int32(len(buckets)), int32(lid)}
			b.ids[lid] = col
			if extIDs != nil {
				b.ids[lid] = extIDs[col]
			}
			b.lens[lid] = vecmath.Norm(p.Vec(int(col)))
			copy(b.row(lid), p.Vec(int(col)))
		}
		b.lb, b.maxAbs = b.lens[0], maxAbsOf(b.rows)
		buckets = append(buckets, b)
	}
	return buckets, loc
}

// inBucketOrder returns p's columns, and ids (nil: the column numbers)
// beside them, stably sorted by decreasing length: the scan order
// Index.State exports.
func inBucketOrder(p *matrix.Matrix, ids []int32) (*matrix.Matrix, []int32) {
	order, lens := identityIDs(p.N()), p.Lengths()
	sort.SliceStable(order, func(a, b int) bool { return lens[order[a]] > lens[order[b]] })
	sp, sids := matrix.New(p.R(), p.N()), make([]int32, p.N())
	for i, col := range order {
		copy(sp.Vec(i), p.Vec(int(col)))
		sids[i] = col
		if ids != nil {
			sids[i] = ids[col]
		}
	}
	return sp, sids
}

// TestBucketizeMatchesOracle: the radix-sorted, catalog-order bucketize,
// its row copy spread over three goroutines where a catalog is wide enough,
// produces the oracle's buckets bit for bit — ids, lengths, rows copied from
// the catalog, l_b, the sidecar step maxAbs and the column → entry map — and
// every unit coordinate derived from a row (bucket.unit) has
// vecmath.Normalize's bits (the values the sorted lists store), on catalogs
// built to stress the sort key: lengths tied in runs (stability decides the
// order), zero vectors, coordinates so small that their squares are
// subnormal (lengths near 1e-160) or vanish (subnormal coordinates: length
// 0, a non-zero vector with the zero direction), lengths spanning many
// binades, a single probe, and caller-chosen ids. Each catalog is also
// handed over (columns.arena) as it is, which a catalog out of length order
// bucketizes by sorting and copying, and in bucket order (inBucketOrder),
// where every bucket keeps its rows, lengths and ids in the arena and its
// slices: the same buckets either way.
func TestBucketizeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const r = 5
	catalog := func(n int, vec func(i int, v []float64)) *matrix.Matrix {
		p := matrix.New(r, n)
		for i := 0; i < n; i++ {
			vec(i, p.Vec(i))
		}
		return p
	}
	gauss := func(scale float64) func(int, []float64) {
		return func(_ int, v []float64) {
			for f := range v {
				v[f] = scale * rng.NormFloat64()
			}
		}
	}
	cases := map[string]*matrix.Matrix{
		"single":  catalog(1, gauss(1)),
		"gauss":   catalog(700, gauss(1)),
		"wide":    catalog(3*spreadMinCols+17, gauss(1)), // the row copy spreads over three goroutines
		"binades": catalog(500, func(_ int, v []float64) { gauss(math.Exp(12*rng.NormFloat64()))(0, v) }),
		"tied": catalog(400, func(i int, v []float64) { // eight distinct vectors up to sign and order
			clear(v)
			v[i%r] = float64(1 + i%8)
			if i%3 == 0 {
				v[i%r] = -v[i%r]
			}
		}),
		"zeros": catalog(300, func(i int, v []float64) {
			clear(v)
			if i%4 != 0 {
				gauss(1)(i, v)
			}
		}),
		"tiny": catalog(300, func(i int, v []float64) {
			switch i % 3 {
			case 0:
				gauss(1e-160)(i, v) // squares subnormal: lengths near 1e-160
			case 1:
				gauss(1e-310)(i, v) // subnormal coordinates: squares vanish, length 0
			default:
				gauss(1)(i, v)
			}
		}),
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		for _, shape := range []struct {
			shrink           float64
			minSize, maxSize int
			ids              bool
		}{{0.9, 30, 100, false}, {0.8, 1, 7, true}, {0, 1, 0, false}} {
			p := cases[name]
			var ids []int32
			if shape.ids {
				ids = make([]int32, p.N())
				for col, k := range rng.Perm(p.N()) {
					ids[col] = int32(3*k + 1)
				}
			}
			sp, sids := inBucketOrder(p, ids)
			for _, arm := range []struct {
				what    string
				p       *matrix.Matrix
				ids     []int32
				arena   bool
				inPlace bool
			}{{"copied", p, ids, false, false}, {"handed over", p, ids, true, p.N() == 1}, {"handed over in bucket order", sp, sids, true, true}} {
				c := matrixColumns(arm.p, arm.ids)
				if arm.arena {
					c.arena = arm.p.Data()
				}
				got, gotLoc := bucketize(c, arm.p.R(), shape.shrink, shape.minSize, shape.maxSize, 3)
				want, wantLoc := oracleBucketize(arm.p, arm.ids, shape.shrink, shape.minSize, shape.maxSize)
				if !slices.Equal(gotLoc, wantLoc) || len(got) != len(want) {
					t.Fatalf("%s %+v %s: %d buckets, oracle %d, or the column map differs", name, shape, arm.what, len(got), len(want))
				}
				inv := make([][]float64, len(got)) // each bucket's invLens, filled once
				start := 0
				for bi, b := range got {
					w := want[bi]
					if !slices.Equal(b.ids, w.ids) || !slices.Equal(bits(b.lens), bits(w.lens)) ||
						!slices.Equal(bits(b.rows), bits(w.rows)) || math.Float64bits(b.lb) != math.Float64bits(w.lb) ||
						math.Float64bits(b.maxAbs) != math.Float64bits(w.maxAbs) || b.r != w.r {
						t.Fatalf("%s %+v %s: bucket %d differs from the oracle's", name, shape, arm.what, bi)
					}
					if inArena := &b.rows[0] == &arm.p.Data()[start*r]; inArena != arm.inPlace || cap(b.rows) != len(b.rows) {
						t.Fatalf("%s %+v %s: bucket %d rows in the arena %v, want %v (capacity %d, length %d)", name, shape, arm.what, bi, inArena, arm.inPlace, cap(b.rows), len(b.rows))
					}
					start += b.size()
					inv[bi] = b.invLens()
				}
				dir := make([]float64, r)
				for col, at := range gotLoc {
					b := got[at.bucket]
					vecmath.Normalize(dir, arm.p.Vec(col))
					for f := range dir {
						if u := b.unit(int(at.lid), f, inv[at.bucket][at.lid]); math.Float64bits(u) != math.Float64bits(dir[f]) {
							t.Fatalf("%s %+v %s: column %d coordinate %d: derived %v, Normalize %v", name, shape, arm.what, col, f, u, dir[f])
						}
					}
				}
			}
		}
	}
}
