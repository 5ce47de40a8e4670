// Package lsh implements random-hyperplane locality-sensitive hashing and
// the BayesLSH-Lite candidate-pruning rule (Satuluri & Parthasarathy, VLDB
// 2012) used by the paper's LEMP-BLSH bucket algorithm (§5, §6.3).
//
// A signature is b sign bits of projections onto random hyperplanes. Two
// unit vectors with cosine similarity s agree on each bit with probability
// ρ(s) = 1 − arccos(s)/π. BayesLSH-Lite inverts this: given m matching bits
// out of b, it computes the posterior probability that s ≥ t under a
// uniform prior and prunes the candidate when that probability falls below
// a small ε (0.03 in the paper). Because the decision depends only on
// (b, t, ε), the minimum acceptable match count can be precomputed, which
// is what MinMatches tabulates.
package lsh

import (
	"math"
	mathbits "math/bits"
	"math/rand"
	"sync"

	"lemp/internal/vecmath"
)

// Hasher projects r-dimensional vectors onto `bits` random hyperplanes and
// packs the signs into a uint64 signature (bits ≤ 64).
type Hasher struct {
	bits   int
	planes [][]float64 // bits hyperplane normals of dimension r
}

// NewHasher draws `bits` Gaussian hyperplanes of dimension r from rng.
func NewHasher(r, bits int, rng *rand.Rand) *Hasher {
	if bits <= 0 || bits > 64 {
		panic("lsh: bits must be in 1..64")
	}
	h := &Hasher{bits: bits, planes: make([][]float64, bits)}
	for i := range h.planes {
		plane := make([]float64, r)
		for j := range plane {
			plane[j] = rng.NormFloat64()
		}
		h.planes[i] = plane
	}
	return h
}

// Signature returns the packed sign bits of v's projections.
func (h *Hasher) Signature(v []float64) uint64 {
	var sig uint64
	for i, plane := range h.planes {
		if vecmath.Dot(plane, v) >= 0 {
			sig |= 1 << uint(i)
		}
	}
	return sig
}

// Matches returns the number of agreeing bits between two signatures built
// by the same b-bit hasher.
func Matches(a, b uint64, bits int) int {
	mask := ^uint64(0)
	if bits < 64 {
		mask = (1 << uint(bits)) - 1
	}
	return bits - mathbits.OnesCount64((a^b)&mask)
}

// MatchProbability returns ρ(s) = 1 − arccos(s)/π, the per-bit agreement
// probability of two unit vectors with cosine similarity s.
func MatchProbability(s float64) float64 {
	return 1 - math.Acos(vecmath.Clamp(s, -1, 1))/math.Pi
}

// Posterior computes P(s ≥ t | m of b bits match) under a uniform prior on
// s ∈ [-1, 1], by numeric integration of the binomial likelihood
// ρ(s)^m (1−ρ(s))^(b−m). The binomial coefficient cancels.
func Posterior(t float64, m, b int) float64 {
	const steps = 2000
	var num, den float64
	for i := 0; i <= steps; i++ {
		s := -1 + 2*float64(i)/steps
		rho := MatchProbability(s)
		// Work in logs to survive b up to 64 without underflow of the
		// mid-range masses.
		var logL float64
		switch {
		case rho == 0:
			if m > 0 {
				continue
			}
		case rho == 1:
			if m < b {
				continue
			}
		default:
			logL = float64(m)*math.Log(rho) + float64(b-m)*math.Log(1-rho)
		}
		w := math.Exp(logL)
		den += w
		if s >= t {
			num += w
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// MinMatches returns the smallest match count m such that
// P(s ≥ t | m of bits match) ≥ eps; candidates with fewer matches are
// pruned (they pass the threshold with probability below ε). It returns
// bits+1 when even a perfect match is insufficient. The posterior is
// monotone in m, so binary search applies.
func MinMatches(t float64, bits int, eps float64) int {
	lo, hi := 0, bits+1
	for lo < hi {
		mid := (lo + hi) / 2
		if Posterior(t, mid, bits) >= eps {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Table precomputes MinMatches on a grid of thresholds so per-query lookups
// are O(1). Thresholds are rounded *down* to the grid, which can only relax
// the pruning (never increases the false-negative rate beyond ε).
type Table struct {
	bits int
	eps  float64
	min  []int // min[i] = MinMatches(i/gridSteps, bits, eps)
}

const gridSteps = 100

// tableCache shares tabulations process-wide: the table depends only on
// (bits, ε), and the posterior integrations behind it cost tens of
// milliseconds — BayesLSH-Lite precomputes them once, so do we.
var tableCache sync.Map // tableKey -> *Table

type tableKey struct {
	bits int
	eps  float64
}

// NewTable tabulates the pruning rule for a signature length and ε.
// Tables are immutable and cached per (bits, ε).
func NewTable(bits int, eps float64) *Table {
	key := tableKey{bits: bits, eps: eps}
	if cached, ok := tableCache.Load(key); ok {
		return cached.(*Table)
	}
	tb := &Table{bits: bits, eps: eps, min: make([]int, gridSteps+1)}
	for i := 0; i <= gridSteps; i++ {
		tb.min[i] = MinMatches(float64(i)/gridSteps, bits, eps)
	}
	actual, _ := tableCache.LoadOrStore(key, tb)
	return actual.(*Table)
}

// MinMatches returns the tabulated minimum match count for threshold t.
// Thresholds ≤ 0 require no matches (nothing can be pruned); thresholds > 1
// are unsatisfiable.
func (tb *Table) MinMatches(t float64) int {
	if t <= 0 {
		return 0
	}
	if t > 1 {
		return tb.bits + 1
	}
	return tb.min[int(t*gridSteps)] // floor: conservative
}
