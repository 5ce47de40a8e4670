package l2ap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lemp/internal/vecmath"
)

// unitVectors draws n unit vectors of dimension r, sparse with the given
// density and non-negative if nonneg.
func unitVectors(rng *rand.Rand, n, r int, density float64, nonneg bool) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, r)
		for {
			nz := 0
			for f := range v {
				v[f] = 0
				if rng.Float64() < density {
					x := rng.NormFloat64()
					if nonneg && x < 0 {
						x = -x
					}
					v[f] = x
					nz++
				}
			}
			if nz > 0 {
				break
			}
		}
		vecmath.Normalize(v, v)
		out[i] = v
	}
	return out
}

// bruteCandidates returns all vectors with cos ≥ t for the unit query.
func bruteCandidates(vecs [][]float64, q []float64, t float64) map[int32]bool {
	want := map[int32]bool{}
	for i, v := range vecs {
		if vecmath.Dot(q, v) >= t {
			want[int32(i)] = true
		}
	}
	return want
}

func TestNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		r := 4 + rng.Intn(20)
		n := 20 + rng.Intn(200)
		density := 0.3 + 0.7*rng.Float64()
		vecs := unitVectors(rng, n, r, density, trial%2 == 0)
		t0 := rng.Float64() * 0.9
		ix := Build(func(lid int) []float64 { return vecs[lid] }, n, r, t0)
		s := NewScratch(n, r)
		for qtrial := 0; qtrial < 10; qtrial++ {
			q := unitVectors(rng, 1, r, density, false)[0]
			// The query threshold must be ≥ the index threshold.
			tq := t0 + (1-t0)*rng.Float64()
			got := ix.Candidates(q, tq, s, nil)
			gotSet := map[int32]bool{}
			for _, lid := range got {
				gotSet[lid] = true
			}
			// Exclude exact-boundary cases (|cos−t| tiny) from the
			// check: they are legitimately FP-ambiguous.
			for i, v := range vecs {
				c := vecmath.Dot(q, v)
				if c >= tq+1e-9 && !gotSet[int32(i)] {
					t.Fatalf("trial %d: missing candidate %d with cos=%g ≥ t=%g (t0=%g)",
						trial, i, c, tq, t0)
				}
			}
		}
	}
}

func TestPruningHappens(t *testing.T) {
	// With a high threshold, the candidate set must be far smaller than n.
	rng := rand.New(rand.NewSource(42))
	n, r := 2000, 16
	vecs := unitVectors(rng, n, r, 1, false)
	ix := Build(func(lid int) []float64 { return vecs[lid] }, n, r, 0.7)
	s := NewScratch(n, r)
	q := unitVectors(rng, 1, r, 1, false)[0]
	got := ix.Candidates(q, 0.7, s, nil)
	if len(got) > n/4 {
		t.Errorf("L2AP returned %d of %d candidates at t=0.7; filters ineffective", len(got), n)
	}
	want := bruteCandidates(vecs, q, 0.7)
	for lid := range want {
		found := false
		for _, g := range got {
			if g == lid {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("missing true match %d", lid)
		}
	}
}

func TestIndexSmallerWithHigherT0(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n, r := 300, 12
	vecs := unitVectors(rng, n, r, 1, false)
	dir := func(lid int) []float64 { return vecs[lid] }
	loose := Build(dir, n, r, 0)
	tight := Build(dir, n, r, 0.8)
	if entries(tight) >= entries(loose) {
		t.Errorf("t0=0.8 index has %d entries, t0=0 has %d; prefix trimming missing",
			entries(tight), entries(loose))
	}
	if loose.t0 != 0 || tight.t0 != 0.8 {
		t.Errorf("T0 not recorded: %g %g", loose.t0, tight.t0)
	}
}

func TestT0Clamped(t *testing.T) {
	vecs := unitVectors(rand.New(rand.NewSource(44)), 10, 4, 1, false)
	ix := Build(func(lid int) []float64 { return vecs[lid] }, 10, 4, 3.5)
	if ix.t0 != 1 {
		t.Errorf("T0=%g, want clamp to 1", ix.t0)
	}
	ix = Build(func(lid int) []float64 { return vecs[lid] }, 10, 4, -2)
	if ix.t0 != 0 {
		t.Errorf("T0=%g, want clamp to 0", ix.t0)
	}
}

func TestScratchReuseAcrossQueries(t *testing.T) {
	// Re-using one scratch across many queries must not leak candidates
	// between queries (the stamp machinery).
	rng := rand.New(rand.NewSource(45))
	n, r := 150, 8
	vecs := unitVectors(rng, n, r, 1, false)
	ix := Build(func(lid int) []float64 { return vecs[lid] }, n, r, 0.2)
	s := NewScratch(n, r)
	for trial := 0; trial < 50; trial++ {
		q := unitVectors(rng, 1, r, 1, false)[0]
		got := ix.Candidates(q, 0.9, s, nil)
		seen := map[int32]bool{}
		for _, lid := range got {
			if seen[lid] {
				t.Fatalf("duplicate candidate %d", lid)
			}
			seen[lid] = true
			if c := vecmath.Dot(q, vecs[lid]); c < -1.0001 {
				t.Fatalf("implausible cosine %g", c)
			}
		}
	}
}

// Property: candidates is always a superset of the true matches (modulo
// boundary ties), for random sparse instances via testing/quick.
func TestSupersetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	f := func(seed int64, t0Raw, tqRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(80)
		dim := 2 + r.Intn(12)
		vecs := unitVectors(r, n, dim, 0.5, false)
		t0 := float64(t0Raw%90) / 100
		tq := t0 + (1-t0)*float64(tqRaw%100)/100
		ix := Build(func(lid int) []float64 { return vecs[lid] }, n, dim, t0)
		s := NewScratch(n, dim)
		q := unitVectors(r, 1, dim, 0.8, false)[0]
		got := map[int32]bool{}
		for _, lid := range ix.Candidates(q, tq, s, nil) {
			got[lid] = true
		}
		for i, v := range vecs {
			if vecmath.Dot(q, v) >= tq+1e-9 && !got[int32(i)] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := Build(func(int) []float64 { return nil }, 0, 5, 0.5)
	s := NewScratch(0, 5)
	if got := ix.Candidates(make([]float64, 5), 0.5, s, nil); len(got) != 0 {
		t.Errorf("empty index returned %d candidates", len(got))
	}
	if entries(ix) != 0 {
		t.Errorf("empty index has %d entries", entries(ix))
	}
}

func TestZeroQueryCoordinateListsSkipped(t *testing.T) {
	// A query that is zero everywhere except one coordinate must still
	// find vectors aligned with that coordinate.
	vecs := [][]float64{{1, 0}, {0, 1}, {math.Sqrt2 / 2, math.Sqrt2 / 2}}
	ix := Build(func(lid int) []float64 { return vecs[lid] }, 3, 2, 0.1)
	s := NewScratch(3, 2)
	got := ix.Candidates([]float64{1, 0}, 0.5, s, nil)
	found := map[int32]bool{}
	for _, lid := range got {
		found[lid] = true
	}
	if !found[0] || !found[2] {
		t.Errorf("candidates %v, want {0,2}", got)
	}
}

// entries returns the total number of indexed postings.
func entries(ix *Index) int {
	var total int
	for f := range ix.lists {
		total += len(ix.lists[f].lids)
	}
	return total
}
