package core

import (
	"math"
	"math/rand"
	"testing"

	"lemp/internal/matrix"
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
		buckets, _ := bucketize(p, nil, tc.shrink, tc.minSize, tc.maxSize)

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

			// Directions are unit length (or zero for zero vectors),
			// and dir·len reconstructs the original vector.
			for lid := 0; lid < b.size(); lid++ {
				dir := b.dir(lid)
				var n2 float64
				for _, x := range dir {
					n2 += x * x
				}
				if b.lens[lid] > 0 && math.Abs(n2-1) > 1e-9 {
					t.Fatalf("bucket %d lid %d: |dir|²=%g", bi, lid, n2)
				}
				orig := p.Vec(int(b.ids[lid]))
				for f, x := range dir {
					if math.Abs(x*b.lens[lid]-orig[f]) > 1e-9 {
						t.Fatalf("bucket %d lid %d: reconstruction mismatch", bi, lid)
					}
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
	buckets, _ := bucketize(p, nil, 0.9, 5, 20)
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
