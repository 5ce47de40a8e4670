// Package data generates synthetic factor matrices calibrated to the
// dataset statistics published in the paper (Table 1).
//
// The paper evaluates on factorizations of Netflix, KDD-Cup'11 (Yahoo!
// Music) and two open-information-extraction matrices (SVD and NMF
// factorizations of a New York Times argument–pattern matrix). Those
// datasets are not redistributable, so this package synthesizes matrices
// that reproduce the properties the algorithms are actually sensitive to:
//
//   - dimensionality r = 50,
//   - the coefficient of variation (CoV) of the vector-length distribution
//     (the paper's length skew, which drives LEMP's bucket pruning),
//   - sparsity (fraction of non-zero entries; 36.2 % for IE-NMF),
//   - sign structure (non-negative entries for NMF factors).
//
// Lengths are drawn from a log-normal distribution, whose CoV is
// √(exp(σ²)−1); this matches the heavy right tail of real factorization
// length distributions. Directions are uniform on the unit sphere for dense
// profiles and sparse non-negative for the NMF profile.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"lemp/internal/matrix"
	"lemp/internal/vecmath"
)

// Profile describes one synthetic dataset: the statistics of its query and
// probe factor matrices. Sizes are scaled-down defaults (the paper uses
// millions of vectors; a laptop-scale reproduction uses tens of thousands —
// override M and N to scale up).
type Profile struct {
	Name     string
	R        int     // vector dimension (rank)
	M        int     // number of query vectors (columns of Q)
	N        int     // number of probe vectors (columns of P)
	CoVQ     float64 // length CoV of query vectors (paper Table 1)
	CoVP     float64 // length CoV of probe vectors (paper Table 1)
	Sparsity float64 // fraction of non-zero coordinates, in (0,1]
	NonNeg   bool    // non-negative entries (NMF-style factors)
	Seed     int64   // base RNG seed; derived streams for Q and P
}

// The four dataset profiles of the paper's Table 1, scaled down by roughly
// 65× in vector count (dimensions, CoVs, sparsity and sign structure are the
// paper's values).
var (
	// IENMF mimics the NMF factorization of the NYT argument–pattern
	// matrix: very high length skew, sparse, non-negative.
	IENMF = Profile{Name: "IE-NMF", R: 50, M: 11800, N: 2000, CoVQ: 1.56, CoVP: 5.53, Sparsity: 0.362, NonNeg: true, Seed: 101}
	// IESVD mimics the SVD factorization of the same matrix: high length
	// skew, dense, mixed sign.
	IESVD = Profile{Name: "IE-SVD", R: 50, M: 11800, N: 2000, CoVQ: 1.51, CoVP: 4.44, Sparsity: 1, NonNeg: false, Seed: 102}
	// Netflix mimics a plain DSGD++ factorization of the Netflix ratings
	// matrix: low length skew, dense.
	Netflix = Profile{Name: "Netflix", R: 50, M: 7400, N: 2600, CoVQ: 0.43, CoVP: 0.72, Sparsity: 1, NonNeg: false, Seed: 103}
	// KDD mimics the Yahoo! Music factorization: the largest dataset,
	// lowest length skew.
	KDD = Profile{Name: "KDD", R: 50, M: 10000, N: 6200, CoVQ: 0.38, CoVP: 0.40, Sparsity: 1, NonNeg: false, Seed: 104}

	// Smoke is not a paper dataset: it is a fixture sized for server smoke
	// tests and CI — indexes in milliseconds yet skewed enough to exercise
	// bucket pruning.
	Smoke = Profile{Name: "Smoke", R: 16, M: 256, N: 800, CoVQ: 0.8, CoVP: 1.2, Sparsity: 1, NonNeg: false, Seed: 105}
)

// Profiles lists the four paper datasets in Table 1 order.
func Profiles() []Profile { return []Profile{IENMF, IESVD, Netflix, KDD} }

// ByName returns the profile with the given name (case-sensitive, matching
// the Name field, with "T" suffix selecting the transpose, e.g. "IE-NMFT").
func ByName(name string) (Profile, error) {
	for _, p := range append(Profiles(), Smoke) {
		if p.Name == name {
			return p, nil
		}
		if p.Name+"T" == name {
			return p.Transpose(), nil
		}
	}
	return Profile{}, fmt.Errorf("data: unknown profile %q", name)
}

// Transpose returns the profile with query and probe roles swapped, the
// paper's IE-SVDᵀ / IE-NMFᵀ construction for the Row-Top-k experiments.
func (p Profile) Transpose() Profile {
	p.Name += "T"
	p.M, p.N = p.N, p.M
	p.CoVQ, p.CoVP = p.CoVP, p.CoVQ
	return p
}

// Scale returns a copy with M and N multiplied by f (rounded), for scaling
// experiments up or down.
func (p Profile) Scale(f float64) Profile {
	p.M = int(math.Round(float64(p.M) * f))
	p.N = int(math.Round(float64(p.N) * f))
	return p
}

// Generate materializes the query and probe matrices of the profile.
// Generation is deterministic in the profile (including Seed).
func (p Profile) Generate() (q, pr *matrix.Matrix) {
	q = GenerateVectors(rand.New(rand.NewSource(p.Seed)), p.M, p.R, p.CoVQ, p.Sparsity, p.NonNeg)
	pr = GenerateVectors(rand.New(rand.NewSource(p.Seed+1<<32)), p.N, p.R, p.CoVP, p.Sparsity, p.NonNeg)
	return q, pr
}

// GenerateVectors returns n vectors of dimension r whose lengths follow a
// log-normal shape with unit mean and *exactly* the given coefficient of
// variation (stratified quantile lengths, randomly permuted — see
// lengths.go), and whose directions are uniform on the sphere (or sparse
// non-negative when sparsity < 1 or nonneg is set). cov = 0 yields unit
// lengths.
func GenerateVectors(rng *rand.Rand, n, r int, cov, sparsity float64, nonneg bool) *matrix.Matrix {
	if sparsity <= 0 || sparsity > 1 {
		panic(fmt.Sprintf("data: sparsity %v out of (0,1]", sparsity))
	}
	m := matrix.New(r, n)
	lengths := lengthsForCoV(n, cov)
	rng.Shuffle(n, func(i, j int) { lengths[i], lengths[j] = lengths[j], lengths[i] })
	for i := 0; i < n; i++ {
		v := m.Vec(i)
		fillDirection(rng, v, sparsity, nonneg)
		vecmath.Scale(v, v, lengths[i])
	}
	return m
}

// fillDirection writes a unit vector into v: Gaussian directions for dense
// signed data, folded-Gaussian with Bernoulli sparsity mask otherwise. At
// least one coordinate is forced non-zero so the direction is well defined.
func fillDirection(rng *rand.Rand, v []float64, sparsity float64, nonneg bool) {
	for {
		nz := 0
		for i := range v {
			if sparsity < 1 && rng.Float64() >= sparsity {
				v[i] = 0
				continue
			}
			x := rng.NormFloat64()
			if nonneg && x < 0 {
				x = -x
			}
			v[i] = x
			nz++
		}
		if nz == 0 {
			continue // resample: zero vector has no direction
		}
		if vecmath.Normalize(v, v) > 0 {
			return
		}
	}
}
