package core

import (
	"math"

	"lemp/internal/quant"
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

// compactLiveCands drops the tombstoned candidates of scan bucket bi from
// s.cand in place, preserving the generator's order. A bucket without a
// tombstone — every bucket of a never-mutated index — skips the filter
// entirely. A recorded prefix stays one unless a tombstone falls inside it.
func (ix *Index) compactLiveCands(bi int, s *scratch) {
	if ix.dead == nil || ix.dead[bi].bits == nil {
		return
	}
	bits := ix.dead[bi].bits
	cand := s.lids()
	k := 0
	for _, lid := range cand {
		if bits[lid>>6]&(1<<(uint32(lid)&63)) == 0 {
			cand[k] = lid
			k++
		}
	}
	s.dropTo(k)
}

// screenCands runs the quantized prefilter over s.cand, between tombstone
// compaction and exact verification: the full-width int8 dot against the
// bucket's sidecar plus quant's conservative bound discards losers without
// touching their f64 row. The bound caps the scaled value the caller would
// emit, computed in the caller's own multiply order — (val·qlen)·lens for
// Above-θ, val·lens for top-k with qlen == 1; qlen is folded into the
// screen's constants (NewScreen's emit factor) — so float rounding
// monotonicity makes the comparison sound. Candidates whose upper bound
// falls below cut (θ, or the current top-k heap floor) are dropped; a
// non-finite upper bound compares false and conservatively survives.
//
// A recorded prefix goes to the panel kernel as it is, rows 0..c-1 of the
// sidecar, and only its survivors are ever written to s.cand; a list goes
// through the eight-pointer kernel in blocks and the one-row kernel for the
// ragged tail (quant.Screen.Prefix and List). Nothing here allocates once
// the scratch has served a call. The screen only discards: every survivor
// is verified in f64 afterwards.
//
// Screening is off — s.cand left untouched — when sidecarFor gives the pair
// no sidecar or the query does not quantize cleanly (non-finite coordinates,
// degenerate magnitudes).
func (ix *Index) screenCands(b *bucket, s *scratch, qi int32, qdir []float64, qlen, cut float64, st *Stats) {
	q8 := ix.sidecarFor(b, len(s.cand), cut)
	if q8 == nil {
		return
	}
	qq, ok := s.quantQuery(qi, qdir)
	if !ok {
		return
	}
	c := len(s.cand)
	if len(s.dots) < c {
		s.dots = make([]int32, cap(s.cand))
	}
	scr := q8.NewScreen(qq, qlen)
	var k int
	if s.prefix {
		k = scr.Prefix(b.lens[:c], cut, s.dots, s.cand)
	} else {
		k = scr.List(s.cand, b.lens, cut, s.dots)
	}
	st.QuantScreened += int64(c - k)
	st.QuantSurvived += int64(k)
	s.dropTo(k)
}

// autoScreenMin is the fewest candidates for which an automatic screen pays:
// the width of quant's strided kernel (Screen8). Below it the screen runs row
// by row, at more than the exact row it would save.
const autoScreenMin = 8

// sidecarFor returns the sidecar that screens a pair holding n live
// candidates against cut, nil for none. Under Options.Quantize that is the
// bucket's eagerly attached sidecar, for every pair. Otherwise, where the int8
// kernels are assembly (Index.autoScreen), a pair is screened iff it shows at
// least autoScreenMin candidates under a finite cut — a Row-Top-k heap that is
// not yet full can drop nothing — and the first such pair builds the bucket's
// sidecar. Whether a pair is screened must not depend on whether the sidecar
// already exists: the rule that uses one is the rule that builds it, so a
// call's counters stay a function of (index, query, problem) and not of the
// calls before it.
func (ix *Index) sidecarFor(b *bucket, n int, cut float64) *quant.Rows {
	if !ix.autoScreen {
		return b.q8.Load()
	}
	if n < autoScreenMin || math.IsInf(cut, -1) {
		return nil
	}
	return b.ensureSidecar()
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
