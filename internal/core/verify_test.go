package core

import (
	"math"
	"math/rand"
	"testing"

	"lemp/internal/matrix"
	"lemp/internal/vecmath"
)

// TestBlockedVerifyBitIdenticalToScalar is the exactness contract of the
// blocked verifier at the core layer: for random buckets, queries and
// candidate subsets (shuffled, partially tombstoned), verifyDots must
// produce bit-for-bit the values the seed implementation computed with one
// vecmath.Dot per candidate, and compactLiveCands must keep exactly the
// live candidates in generator order.
func TestBlockedVerifyBitIdenticalToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	for trial := 0; trial < 60; trial++ {
		r := []int{1, 2, 3, 4, 5, 7, 8, 16, 50}[rng.Intn(9)]
		n := 1 + rng.Intn(200)
		p := genMatrix(rng, n, r, 0.8, 1, false, 0, 0)
		ix, err := NewIndex(p, Options{MinBucketSize: 1 + rng.Intn(40)})
		if err != nil {
			t.Fatal(err)
		}
		// Tombstone a few probes so dead filtering is exercised.
		if n > 2 && trial%2 == 0 {
			for d := 0; d < 1+rng.Intn(3); d++ {
				id := int32(rng.Intn(n))
				if _, _, _, live := ix.find(id); live {
					if _, err := ix.Apply([]ProbeUpdate{{Op: OpRemove, ID: id}}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		qdir := make([]float64, r)
		for f := range qdir {
			qdir[f] = rng.NormFloat64()
		}
		vecmath.Normalize(qdir, qdir)
		s := newScratch(ix.maxBucket, ix.r)
		for bi, b := range ix.scan {
			// Random candidate subset in shuffled order (coordinate
			// methods emit candidates in list order, not lid order).
			s.resetCands()
			for lid := 0; lid < b.size(); lid++ {
				if rng.Intn(3) != 0 {
					s.cand = append(s.cand, int32(lid))
				}
			}
			rng.Shuffle(len(s.cand), func(i, j int) {
				s.cand[i], s.cand[j] = s.cand[j], s.cand[i]
			})
			// Seed scalar path: skip dead, one Dot per candidate, in
			// generator order.
			var wantLids []int32
			var wantBits []uint64
			for _, lid := range s.cand {
				if ix.deadSkip(bi, int(lid)) {
					continue
				}
				wantLids = append(wantLids, lid)
				wantBits = append(wantBits, math.Float64bits(vecmath.Dot(qdir, b.row(int(lid)))))
			}
			var st Stats
			ix.compactLiveCands(bi, s)
			verifyDots(b, qdir, s, &st)
			if len(s.cand) != len(wantLids) {
				t.Fatalf("trial %d: %d live candidates, want %d", trial, len(s.cand), len(wantLids))
			}
			for i, lid := range s.cand {
				if lid != wantLids[i] {
					t.Fatalf("trial %d: candidate %d at position %d, want %d (order not preserved)",
						trial, lid, i, wantLids[i])
				}
				if got := math.Float64bits(s.vals[i]); got != wantBits[i] {
					t.Fatalf("trial %d lid %d: blocked %x, scalar %x", trial, lid, got, wantBits[i])
				}
			}
			if got := st.BlockVerified + st.ScalarVerified; got != int64(len(wantLids)) {
				t.Fatalf("trial %d: verified-counter sum %d, want %d", trial, got, len(wantLids))
			}
		}
	}
}

// TestVerifyStatsSplit: a run accounts for every live candidate exactly
// once — discarded by the int8 screen (none on the portable kernels, where a
// default index does not screen), or block- or scalar-verified — with the
// blocked share dominating once candidate sets are non-trivial.
func TestVerifyStatsSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	p := genMatrix(rng, 400, 16, 0.8, 1, false, 0, 0)
	q := genMatrix(rng, 32, 16, 0.8, 1, false, 0, 0)
	ix, err := NewIndex(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := rowTopK(ix, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	total := st.BlockVerified + st.ScalarVerified
	if total+st.QuantScreened != st.Candidates {
		t.Fatalf("screened %d + verified %d+%d does not cover %d candidates (no tombstones here)",
			st.QuantScreened, st.BlockVerified, st.ScalarVerified, st.Candidates)
	}
	if (st.QuantScreened > 0) != ix.autoScreen {
		t.Fatalf("%d candidates screened on a default index, autoScreen=%v", st.QuantScreened, ix.autoScreen)
	}
	if st.BlockVerified == 0 {
		t.Fatal("no block-verified candidates on a 400-probe index")
	}
	if st.BlockVerified < st.ScalarVerified {
		t.Fatalf("blocked path verified %d of %d candidates; scalar tail dominates",
			st.BlockVerified, total)
	}
}

// TestPretuneDeltaBuckets: once tuning is frozen, freshly created delta
// buckets must come out pretuned from the retained sample instead of
// running on defaults until compaction — and results must stay exact.
func TestPretuneDeltaBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	p := matrix.New(8, 150)
	for i := 0; i < 150; i++ {
		copy(p.Vec(i), randVec(rng, 8))
	}
	ix, err := NewIndex(p, Options{Algorithm: AlgLI, TuneByCost: true})
	if err != nil {
		t.Fatal(err)
	}
	sample := matrix.New(8, 12)
	for i := 0; i < 12; i++ {
		copy(sample.Vec(i), randVec(rng, 8))
	}
	if err := ix.Pretune(sample, Problem{K: 5}); err != nil {
		t.Fatal(err)
	}
	model := &probeModel{vecs: make(map[int32][]float64)}
	for i := 0; i < 150; i++ {
		model.vecs[int32(i)] = append([]float64(nil), p.Vec(i)...)
	}
	// A batch large enough to clear pretuneDeltaMinOverlay (tiny overlays
	// deliberately skip delta pretuning — scanning them is cheap under any
	// method), on top of some random churn.
	nextID := int32(150)
	ups := randomBatch(rng, model, &nextID, 8)
	for len(ups) < pretuneDeltaMinOverlay+8 {
		vec := randVec(rng, 8)
		ups = append(ups, ProbeUpdate{Op: OpAdd, ID: nextID, Vec: vec})
		model.vecs[nextID] = vec
		nextID++
	}
	if _, err := ix.Apply(ups); err != nil {
		t.Fatal(err)
	}
	if len(ix.segs) == 1 {
		t.Fatal("batch produced no overlay entries")
	}
	for bi, b := range ix.scan {
		if b.delta && !ix.frozen[bi].tuned {
			t.Fatalf("delta bucket at scan position %d not pretuned despite frozen tuning", bi)
		}
	}
	q := matrix.New(8, 3)
	for i := 0; i < 3; i++ {
		copy(q.Vec(i), randVec(rng, 8))
	}
	checkEqual(t, "pretuned-delta", ix, model.freshIndex(t, 8, Options{Algorithm: AlgLI, TuneByCost: true}), q, 6)
}

// TestScratchPoolReuse: a second retrieval call on the same index must reuse
// the pooled scratch; a layout change that grows maxBucket must discard it.
func TestScratchPoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(504))
	p := genMatrix(rng, 100, 8, 0.8, 1, false, 0, 0)
	ix, err := NewIndex(p, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Under the race detector sync.Pool drops a quarter of all Puts at
	// random, so reuse is looked for over a few rounds.
	var s2 *scratch
	for try := 0; ; try++ {
		s1 := ix.getScratch()
		s1.beginTile(5, 3)
		ix.putScratch(s1)
		if s2 = ix.getScratch(); s1 == s2 {
			break
		}
		if try == 20 {
			t.Fatal("pooled scratch not reused for an unchanged layout")
		}
	}
	if len(s2.tileHave) != 0 {
		t.Fatal("pooled scratch handed out with a stale query tile")
	}
	ix.putScratch(s2)
	// Shrink the pooled sizing below the index's requirement.
	s2.maxBucket = ix.maxBucket - 1
	if s3 := ix.getScratch(); s3 == s2 {
		t.Fatal("undersized pooled scratch reused")
	}
}
