// Package l2ap implements the L2AP all-pairs similarity-search index
// (Anastasiu & Karypis, ICDE 2014) restricted to what the paper's LEMP-L2AP
// bucket algorithm needs: cosine-similarity candidate generation over a set
// of unit vectors with a fixed index-time lower-bound threshold t0 and
// per-query thresholds t ≥ t0.
//
// Indexing walks each vector's coordinates in a fixed order and skips the
// longest prefix whose ℓ² norm stays below t0 (a query can never reach t0
// through that prefix alone); only the suffix is put into per-coordinate
// inverted lists, each entry carrying the vector's remaining suffix norm.
// Candidate generation accumulates partial dot products over the lists of
// the query's non-zero coordinates and applies the ℓ²-norm filters the
// paper reports as the efficient combination: new candidates stop being
// admitted once maxPrefix + ‖q̄_{f:}‖ < t (remscore), accumulating
// candidates are dropped when acc + prefix + suffix·‖q̄_{f+1:}‖ < t
// (positional ℓ²), and survivors face a final prefix-bound check.
package l2ap

import (
	"math"

	"lemp/internal/vecmath"
)

// Index is an L2AP inverted index over n unit vectors of dimension r.
type Index struct {
	r, n       int
	t0         float64
	maxPrefix  float64   // max un-indexed prefix norm over all vectors
	prefixNorm []float64 // per vector: norm of its un-indexed prefix
	split      []int32   // per vector: first indexed coordinate
	lists      []postings
}

type postings struct {
	lids   []int32
	vals   []float64
	suffix []float64 // ‖p̄_{f+1:}‖ of the entry's vector
}

// Build indexes the n unit vectors dir(0..n-1) with lower-bound threshold
// t0 (clamped to [0,1]). dir must return the normalized vector for a local
// id; the slices are only read during Build.
func Build(dir func(lid int) []float64, n, r int, t0 float64) *Index {
	t0 = vecmath.Clamp(t0, 0, 1)
	ix := &Index{
		r: r, n: n, t0: t0,
		prefixNorm: make([]float64, n),
		split:      make([]int32, n),
		lists:      make([]postings, r),
	}
	for lid := 0; lid < n; lid++ {
		v := dir(lid)
		var prefixSq float64
		split := r
		for f := 0; f < r; f++ {
			nextSq := prefixSq + v[f]*v[f]
			if math.Sqrt(nextSq) >= t0 {
				split = f
				break
			}
			prefixSq = nextSq
		}
		ix.split[lid] = int32(split)
		ix.prefixNorm[lid] = math.Sqrt(prefixSq)
		if ix.prefixNorm[lid] > ix.maxPrefix {
			ix.maxPrefix = ix.prefixNorm[lid]
		}
		running := prefixSq
		for f := split; f < r; f++ {
			running += v[f] * v[f]
			if v[f] == 0 {
				continue
			}
			l := &ix.lists[f]
			l.lids = append(l.lids, int32(lid))
			l.vals = append(l.vals, v[f])
			l.suffix = append(l.suffix, math.Sqrt(math.Max(0, 1-running)))
		}
	}
	return ix
}

// Scratch holds the per-query accumulators. One Scratch may be reused
// across queries and across Index instances of the same or smaller size.
type Scratch struct {
	acc     []float64
	seen    []int32
	mark    int32
	touched []int32
	qsuf    []float64 // ‖q̄_{f:}‖ for f = 0..r (qsuf[r] = 0)
	qpre    []float64 // ‖q̄_{:f}‖ for f = 0..r
}

// NewScratch returns scratch sized for indexes with ≤ n vectors of
// dimension ≤ r.
func NewScratch(n, r int) *Scratch {
	return &Scratch{
		acc:  make([]float64, n),
		seen: make([]int32, n),
		qsuf: make([]float64, r+1),
		qpre: make([]float64, r+1),
	}
}

func (s *Scratch) grow(n, r int) {
	if len(s.acc) < n {
		s.acc = make([]float64, n)
		s.seen = make([]int32, n)
		s.mark = 0
	}
	if len(s.qsuf) < r+1 {
		s.qsuf = make([]float64, r+1)
		s.qpre = make([]float64, r+1)
	}
}

// Candidates appends to out the local ids of all vectors whose cosine
// similarity with the unit query q can reach t; every vector with
// cos(q,p) ≥ t is included (no false negatives for t ≥ T0). q must have
// dimension r.
func (ix *Index) Candidates(q []float64, t float64, s *Scratch, out []int32) []int32 {
	s.grow(ix.n, ix.r)
	s.mark++
	if s.mark == math.MaxInt32 {
		for i := range s.seen {
			s.seen[i] = 0
		}
		s.mark = 1
	}
	s.touched = s.touched[:0]

	// Suffix and prefix norms of the query per coordinate.
	var run float64
	for f := ix.r - 1; f >= 0; f-- {
		run += q[f] * q[f]
		s.qsuf[f] = math.Sqrt(run)
	}
	s.qsuf[ix.r] = 0
	for f := 0; f <= ix.r; f++ {
		s.qpre[f] = math.Sqrt(math.Max(0, run-s.qsuf[f]*s.qsuf[f]))
	}

	const pruned = math.MaxFloat64 // sentinel in acc: dropped candidate

	for f := 0; f < ix.r; f++ {
		qf := q[f]
		if qf == 0 {
			continue
		}
		l := &ix.lists[f]
		if len(l.lids) == 0 {
			continue
		}
		admit := ix.maxPrefix+s.qsuf[f] >= t
		qRest := s.qsuf[f+1]
		for e, lid := range l.lids {
			if s.seen[lid] != s.mark {
				if !admit {
					continue
				}
				s.seen[lid] = s.mark
				s.acc[lid] = 0
				s.touched = append(s.touched, lid)
			}
			if s.acc[lid] == pruned {
				continue
			}
			s.acc[lid] += qf * l.vals[e]
			// Positional ℓ² filter: best case adds the full
			// remaining suffix product plus the un-indexed prefix.
			if s.acc[lid]+ix.prefixNorm[lid]+l.suffix[e]*qRest < t {
				s.acc[lid] = pruned
			}
		}
	}
	for _, lid := range s.touched {
		a := s.acc[lid]
		if a == pruned {
			continue
		}
		// Final filter with the tight prefix bound: the un-indexed
		// prefix of p can contribute at most ‖p̄_prefix‖·‖q̄_prefix‖.
		if a+ix.prefixNorm[lid]*s.qpre[ix.split[lid]] >= t {
			out = append(out, lid)
		}
	}
	return out
}
