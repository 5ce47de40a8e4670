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
//  1. where sidecarFor screens the pair, drops the candidates whose
//     conservative int8 bound on fl(qᵀp) — the query's codes against the
//     bucket's sidecar, the quantization of its raw rows — falls below the
//     cut, θ or the current heap floor (step, scan.go: a prefix through the
//     panel kernel in a quant.Block, a list through the eight-row kernel; a
//     query that does not quantize cleanly is not screened), taking the
//     candidates as generated, tombstones included, so a LENGTH pair stays a
//     prefix. The screen only discards; then compactLiveCands drops the
//     tombstoned survivors in place, and every live one is verified in f64;
//  2. takes the common prefix case — LENGTH's prefix and the whole-bucket
//     fallback are lids 0..c-1, which the generator records as a flag
//     (scratch.prefix) instead of a list — as one DotBatch panel pass
//     directly over b.rows with zero gathering (the candidate set is
//     literally a dense matrix–vector product there);
//  3. otherwise verifies in 8/4-wide blocks with vecmath.Dot8/Dot4 over the
//     strided rows in generator order, falling back to scalar Dot only for
//     the ragged tail. Candidates are deliberately NOT sorted first:
//     buckets are sized to stay cache-resident (Options.CacheBytes), so a
//     sort buys no locality while costing O(c log c) per (query, bucket)
//     pair — benchmarked as a net loss at every r in {16, 64, 256}.
//
// Every kernel multiplies the raw query row with the raw probe row and
// accumulates in vecmath's one canonical order (stated in
// vecmath/kernels.go), so every value is fl(qᵀp) as vecmath.Dot, and so
// internal/naive, computes it, whichever kernel verifies the candidate — the
// differential harness (the root package's differential_test.go) holds every
// entry point to naive bit for bit. Threshold and heap
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
	bits, k := ix.dead[bi].bits, 0
	for i := range s.cand {
		if lid := s.lid(i); bits[lid>>6]&(1<<(uint32(lid)&63)) == 0 {
			s.cand[k] = lid // k ≤ i: a recorded prefix is read through lid, not cand
			k++
		}
	}
	s.dropTo(k)
}

// autoScreenMin is the fewest candidates for which an automatic screen runs:
// the width of quant's strided kernel (Screen8); below it the screen goes row
// by row. Per candidate that no longer loses to the exact row: at r = 50 on
// a 2.1 GHz Xeon, BenchmarkDotQ8 (one-row kernel plus comparison, scattered
// rows) reads 6.8–7.6 ns and one f64 Dot (BenchmarkDotScalarPanel) 11–13 ns.
// The constant stays because a pair below it also pays the screen's fixed
// cost — the query's screen constants, the List call and, for the first such
// pair, the bucket's sidecar — and verifies four to seven candidates through
// the blocked Dot4 at under a scalar Dot each; no pair-level measurement
// has shown a smaller one to pay.
const autoScreenMin = 8

// screenRule decides, once per index, which pairs the int8 screen covers,
// as the fewest candidates a pair under a finite cut must show (0:
// none). An index screens nothing where its dimension lies outside
// [1, quant.MaxDim]; under Options.Quantize it screens every pair that has a
// candidate, on every kernel tier; otherwise it screens the pairs of at
// least autoScreenMin candidates where the int8 kernels are assembly
// (quant.Accelerated), and nothing on the portable ones, where the screen
// costs more than the exact dot it saves.
func screenRule(opts Options, r int) int {
	switch {
	case r < 1 || r > quant.MaxDim:
		return 0
	case opts.Quantize:
		return 1
	case quant.Accelerated(r):
		return autoScreenMin
	}
	return 0
}

// sidecarFor returns the sidecar that screens a pair holding n candidates,
// tombstones included, against cut, nil for none. No pair under a cut of −∞
// is screened: a Row-Top-k heap that is not yet full (the seed buckets) can
// drop nothing, so its candidates are never counted as screened or survived.
// Otherwise a pair is screened iff it shows at least Index.screenMin
// candidates (screenRule), and the first such pair builds the bucket's
// sidecar, whatever the options (the tuner alone builds one earlier, before
// it times the bucket). Whether a
// pair is screened must not depend on whether the sidecar already exists: the
// rule that uses one is the rule that builds it, so a call's counters stay a
// function of (index, query, problem) and not of the calls before it.
func (ix *Index) sidecarFor(b *bucket, n int, cut float64) *quant.Rows {
	if ix.screenMin == 0 || n < ix.screenMin || math.IsInf(cut, -1) {
		return nil
	}
	return b.ensureSidecar()
}

// verifyDots drops the tombstoned candidates of scan bucket bi, computes
// s.vals[i] = fl(qᵀp) for every live s.cand[i], q being the raw query row,
// with the blocked kernels and counts block- vs scalar-verified ones into st.
func (ix *Index) verifyDots(bi int, qrow []float64, s *scratch, st *Stats) {
	ix.compactLiveCands(bi, s)
	b := ix.scan[bi]
	c := len(s.cand)
	if cap(s.vals) < c {
		s.vals = make([]float64, c+c/2+8)
	}
	s.vals = s.vals[:c]
	if c == 0 {
		return
	}
	if s.prefix { // rows 0..c-1: one dense panel product
		vecmath.DotBatch(qrow, b.rows[:c*b.r], s.vals)
		st.BlockVerified += int64(c)
		return
	}
	i := 0
	for ; i+8 <= c; i += 8 {
		vecmath.Dot8(qrow,
			b.row(int(s.cand[i])), b.row(int(s.cand[i+1])),
			b.row(int(s.cand[i+2])), b.row(int(s.cand[i+3])),
			b.row(int(s.cand[i+4])), b.row(int(s.cand[i+5])),
			b.row(int(s.cand[i+6])), b.row(int(s.cand[i+7])),
			(*[8]float64)(s.vals[i:i+8]))
	}
	for ; i+4 <= c; i += 4 {
		vecmath.Dot4(qrow,
			b.row(int(s.cand[i])), b.row(int(s.cand[i+1])),
			b.row(int(s.cand[i+2])), b.row(int(s.cand[i+3])),
			(*[4]float64)(s.vals[i:i+4]))
	}
	st.BlockVerified += int64(i)
	st.ScalarVerified += int64(c - i)
	for ; i < c; i++ {
		s.vals[i] = vecmath.Dot(qrow, b.row(int(s.cand[i])))
	}
}
