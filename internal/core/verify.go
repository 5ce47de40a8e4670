package core

import (
	"math/bits"

	"lemp/internal/vecmath"
)

// Blocked verification. Candidate generation prunes, but every surviving
// candidate still pays an exact inner product (§3.2, line 16 of Algorithm 1),
// and once thresholds are moderate that verification dominates retrieval
// time. Instead of one vecmath.Dot call per candidate, the verifier:
//
//  1. compacts the candidate list to live entries in place (tombstone
//     filtering moves out of the dot-product loop);
//  2. takes the common prefix case — LENGTH's prefix and the whole-bucket
//     fallback are lids 0..c-1, which the generator records as a flag
//     (scratch.prefix) instead of a list — as one DotBatch panel pass
//     directly over b.dirs with zero gathering (the candidate set is
//     literally a dense matrix–vector product there);
//  3. otherwise verifies in 8/4-wide blocks with vecmath.Dot8/Dot4 over the
//     strided rows in generator order, falling back to scalar Dot only for
//     the ragged tail. Candidates are deliberately NOT sorted first:
//     buckets are sized to stay cache-resident (Options.CacheBytes), so a
//     sort buys no locality while costing O(c log c) per (query, bucket)
//     pair — benchmarked as a net loss at every r in {16, 64, 256}.
//
// Every kernel accumulates a row in vecmath's one canonical order (stated
// in vecmath/kernels.go), so which kernel verifies a candidate never
// changes its value — the differential mutation harness (delta_test.go)
// asserts byte-identical retrieval results across it. Threshold and heap
// checks are applied per block by the callers, which read the dot products
// back out of s.vals.

// compactLiveCands drops tombstoned candidates from s.cand in place,
// preserving the generator's order. Delta buckets hold only live entries
// and skip the filter entirely. A recorded prefix stays one unless a
// tombstone falls inside it.
func (ix *Index) compactLiveCands(b *bucket, s *scratch) {
	if b.delta || len(ix.dead) == 0 {
		return
	}
	cand := s.lids()
	k := 0
	for _, lid := range cand {
		if _, gone := ix.dead[b.ids[lid]]; !gone {
			cand[k] = lid
			k++
		}
	}
	s.dropTo(k)
}

// screenCands runs the quantized prefilter over s.cand, between tombstone
// compaction and exact verification: the checkpoint bound (an int8
// head-prefix dot plus quant's remaining-mass Cauchy–Schwarz term) screens
// losers at a quarter of the dot work. The bound caps the scaled value the
// caller would emit, computed in the caller's own multiply order —
// (val·qlen)·lens for Above-θ, val·lens for top-k with qlen == 1 — so float
// rounding monotonicity makes the comparison sound. Candidates whose upper
// bound falls below cut (θ, or the current top-k heap floor) are dropped
// from s.cand in place without touching their f64 row; a non-finite upper
// bound compares false and conservatively survives. Checkpoint survivors go
// straight to the exact kernels: finishing the remaining int8 dimensions
// for the tighter full bracket kills so few extra candidates (the
// checkpoint takes ~96% of the full bound's kills on spectral-decay data)
// that the exact f64 dot for those borderline rows is cheaper than the
// finish pass over every survivor.
//
// With approxOnly set (the Approx retrieval mode's centroid phase),
// survivors adopt their approximate dot into s.vals and the caller skips
// exact verification entirely. The return value reports that: true means
// s.vals is already filled and verifyDots must not run.
//
// Screening is off — returning false with s.cand untouched — when the
// bucket has no sidecar or the query does not quantize cleanly (non-finite
// coordinates, degenerate magnitudes).
func (ix *Index) screenCands(b *bucket, s *scratch, qi int32, qdir []float64, qlen, cut float64, approxOnly bool, st *Stats) bool {
	q8 := b.q8
	if q8 == nil {
		return false
	}
	qq, ok := s.quantQuery(qi, qdir)
	if !ok {
		return false
	}
	cand := s.lids()
	if approxOnly {
		if cap(s.vals) < len(cand) {
			s.vals = make([]float64, len(cand)+len(cand)/2+8)
		}
		s.vals = s.vals[:cap(s.vals)]
	}
	// qlen is folded into the screen's constants (NewScreen's emit factor),
	// so the per-candidate predicate is one multiply against the row length
	// — still the caller's emit multiply order, (val·qlen)·lens, with the
	// inner factor bounded instead of computed.
	scr := q8.NewScreen(qq, qlen)
	k := 0
	i := 0
	// 8-wide main loop: the batched int8 head-dot kernel amortizes the
	// shared query loads and loop control across rows, mirroring the Dot8
	// structure of exact verification, and applies the cutoff predicate
	// in-kernel — the caller walks only the survivor bits of the returned
	// mask, usually none. Only the Approx mode finishes the remaining
	// dimensions — it needs the approximate value and the tight bracket;
	// the exact path hands checkpoint survivors to the f64 kernels
	// directly.
	// LENGTH's prefix (and the whole-bucket fallback) hands over lids
	// 0..c-1 in order; there the per-block row lengths are a direct slice
	// view into b.lens instead of a gather.
	contig := s.prefix
	var dh [8]int32
	var lens8 [8]float64
	for ; i+8 <= len(cand); i += 8 {
		lens := &lens8
		if contig {
			lens = (*[8]float64)(b.lens[cand[i] : cand[i]+8])
		} else {
			for j := 0; j < 8; j++ {
				lens8[j] = b.lens[cand[i+j]]
			}
		}
		mask := scr.Screen8(int(cand[i]), int(cand[i+1]), int(cand[i+2]), int(cand[i+3]),
			int(cand[i+4]), int(cand[i+5]), int(cand[i+6]), int(cand[i+7]), lens, cut, &dh)
		for m := mask; m != 0; m &= m - 1 {
			j := bits.TrailingZeros8(m)
			lid := cand[i+j]
			if approxOnly {
				approx, bound := q8.FinishApproxBound(qq, int(lid), dh[j])
				if (approx+bound)*qlen*b.lens[lid] < cut {
					continue
				}
				s.vals[k] = approx
			}
			cand[k] = lid
			k++
		}
	}
	// 4-wide then scalar ragged tail. Very selective thresholds leave most
	// buckets with single-digit candidate prefixes, so the tail path is hot
	// there — it gets the same fused predicate as the main loop.
	if i+4 <= len(cand) {
		var dh4 [4]int32
		var lens4 [4]float64
		for j := 0; j < 4; j++ {
			lens4[j] = b.lens[cand[i+j]]
		}
		mask := scr.Screen4(int(cand[i]), int(cand[i+1]), int(cand[i+2]), int(cand[i+3]), &lens4, cut, &dh4)
		for m := mask; m != 0; m &= m - 1 {
			j := bits.TrailingZeros8(m)
			lid := cand[i+j]
			if approxOnly {
				approx, bound := q8.FinishApproxBound(qq, int(lid), dh4[j])
				if (approx+bound)*qlen*b.lens[lid] < cut {
					continue
				}
				s.vals[k] = approx
			}
			cand[k] = lid
			k++
		}
		i += 4
	}
	for ; i < len(cand); i++ {
		lid := cand[i]
		head, u := scr.UB(int(lid))
		if u*b.lens[lid] < cut {
			continue
		}
		if approxOnly {
			approx, bound := q8.FinishApproxBound(qq, int(lid), head)
			if (approx+bound)*qlen*b.lens[lid] < cut {
				continue
			}
			s.vals[k] = approx
		}
		cand[k] = lid
		k++
	}
	st.QuantScreened += int64(len(cand) - k)
	st.QuantSurvived += int64(k)
	s.dropTo(k)
	if approxOnly {
		s.vals = s.vals[:k]
	}
	return approxOnly
}

// verifyDots computes s.vals[i] = q̄ᵀp̄ for every (live) candidate s.cand[i]
// using the blocked kernels, and counts block- vs scalar-verified
// candidates into st.
func verifyDots(b *bucket, qdir []float64, s *scratch, st *Stats) {
	c := len(s.cand)
	if cap(s.vals) < c {
		s.vals = make([]float64, c+c/2+8)
	}
	s.vals = s.vals[:c]
	if c == 0 {
		return
	}
	if s.prefix { // rows 0..c-1: one dense panel product
		vecmath.DotBatch(qdir, b.dirs[:c*b.r], s.vals)
		st.BlockVerified += int64(c)
		return
	}
	i := 0
	for ; i+8 <= c; i += 8 {
		vecmath.Dot8(qdir,
			b.dir(int(s.cand[i])), b.dir(int(s.cand[i+1])),
			b.dir(int(s.cand[i+2])), b.dir(int(s.cand[i+3])),
			b.dir(int(s.cand[i+4])), b.dir(int(s.cand[i+5])),
			b.dir(int(s.cand[i+6])), b.dir(int(s.cand[i+7])),
			(*[8]float64)(s.vals[i:i+8]))
	}
	for ; i+4 <= c; i += 4 {
		vecmath.Dot4(qdir,
			b.dir(int(s.cand[i])), b.dir(int(s.cand[i+1])),
			b.dir(int(s.cand[i+2])), b.dir(int(s.cand[i+3])),
			(*[4]float64)(s.vals[i:i+4]))
	}
	st.BlockVerified += int64(i)
	st.ScalarVerified += int64(c - i)
	for ; i < c; i++ {
		s.vals[i] = vecmath.Dot(qdir, b.dir(int(s.cand[i])))
	}
}
