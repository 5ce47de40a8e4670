// Package kmeans implements spherical k-means over vector directions, the
// clustering behind the serving layer's cluster placement, which partitions
// a probe catalog across shards by direction.
//
// Spherical k-means clusters unit vectors by cosine similarity: assignment
// maximizes q̄ᵀc, and each centroid update is the normalized mean of its
// members' directions. Vector lengths are ignored — for Row-Top-k they do
// not affect the ranking.
package kmeans

import (
	"math/rand"

	"lemp/internal/matrix"
	"lemp/internal/vecmath"
)

// Result of a clustering run.
type Result struct {
	// Centroids holds k unit vectors (rank = input rank).
	Centroids *matrix.Matrix
	// Assign maps each input vector to its centroid index.
	Assign []int
	// Sizes counts members per centroid.
	Sizes []int
	// Iterations actually performed (≤ maxIter; stops at convergence).
	Iterations int
	// Objective is the final mean cosine of vectors to their centroid.
	Objective float64
}

// Spherical clusters the directions of m's vectors into k clusters. k is
// clamped to [1, n]. Zero vectors are assigned to cluster 0 and do not
// influence centroids. The run is deterministic in seed.
func Spherical(m *matrix.Matrix, k, maxIter int, seed int64) *Result {
	n := m.N()
	r := m.R()
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if maxIter < 1 {
		maxIter = 10
	}
	res := &Result{
		Centroids: matrix.New(r, k),
		Assign:    make([]int, n),
		Sizes:     make([]int, k),
	}
	if n == 0 {
		return res
	}

	// Normalized copies of the inputs.
	dirs := matrix.New(r, n)
	lens := make([]float64, n)
	for i := 0; i < n; i++ {
		lens[i] = vecmath.Normalize(dirs.Vec(i), m.Vec(i))
	}

	rng := rand.New(rand.NewSource(seed))
	initPlusPlus(rng, dirs, lens, res.Centroids)

	sums := matrix.New(r, k)
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		changed := assign(dirs, lens, res)
		update(dirs, lens, res, sums, rng)
		if !changed && iter > 0 {
			break
		}
	}
	// Final assignment against the final centroids, plus the objective.
	assign(dirs, lens, res)
	var obj float64
	var counted int
	for i := 0; i < n; i++ {
		if lens[i] == 0 {
			continue
		}
		obj += vecmath.Dot(dirs.Vec(i), res.Centroids.Vec(res.Assign[i]))
		counted++
	}
	if counted > 0 {
		res.Objective = obj / float64(counted)
	}
	return res
}

// initPlusPlus seeds centroids k-means++-style: the first uniformly among
// non-zero vectors, the rest proportional to angular distance (1 - cos) to
// the nearest chosen centroid.
func initPlusPlus(rng *rand.Rand, dirs *matrix.Matrix, lens []float64, centroids *matrix.Matrix) {
	n := dirs.N()
	k := centroids.N()
	nonzero := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if lens[i] > 0 {
			nonzero = append(nonzero, i)
		}
	}
	if len(nonzero) == 0 {
		// All-zero input: leave zero centroids; assignment is moot.
		return
	}
	first := nonzero[rng.Intn(len(nonzero))]
	copy(centroids.Vec(0), dirs.Vec(first))
	dist := make([]float64, len(nonzero)) // 1 - cos to the nearest centroid
	for j, i := range nonzero {
		dist[j] = 1 - vecmath.Dot(dirs.Vec(i), centroids.Vec(0))
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range dist {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = nonzero[rng.Intn(len(nonzero))]
		} else {
			x := rng.Float64() * total
			pick = nonzero[len(nonzero)-1]
			for j, d := range dist {
				x -= d
				if x <= 0 {
					pick = nonzero[j]
					break
				}
			}
		}
		copy(centroids.Vec(c), dirs.Vec(pick))
		for j, i := range nonzero {
			if d := 1 - vecmath.Dot(dirs.Vec(i), centroids.Vec(c)); d < dist[j] {
				dist[j] = d
			}
		}
	}
}

// assign maps every vector to its maximum-cosine centroid, returning
// whether any assignment changed. The centroid matrix is a contiguous row
// panel, so each vector's cosines against all centroids are one blocked
// DotBatch pass (bit-identical to the per-centroid Dot loop it replaces).
func assign(dirs *matrix.Matrix, lens []float64, res *Result) bool {
	changed := false
	k := res.Centroids.N()
	cos := make([]float64, k)
	for i := 0; i < dirs.N(); i++ {
		if lens[i] == 0 {
			if res.Assign[i] != 0 {
				res.Assign[i] = 0
				changed = true
			}
			continue
		}
		vecmath.DotBatch(dirs.Vec(i), res.Centroids.Data(), cos)
		best, bestCos := 0, cos[0]
		for c := 1; c < k; c++ {
			if cos[c] > bestCos {
				best, bestCos = c, cos[c]
			}
		}
		if res.Assign[i] != best {
			res.Assign[i] = best
			changed = true
		}
	}
	return changed
}

// update recomputes each centroid as the normalized mean of its members'
// directions; empty clusters are reseeded to a random non-zero vector.
func update(dirs *matrix.Matrix, lens []float64, res *Result, sums *matrix.Matrix, rng *rand.Rand) {
	k := res.Centroids.N()
	for i := range sums.Data() {
		sums.Data()[i] = 0
	}
	for c := range res.Sizes {
		res.Sizes[c] = 0
	}
	for i := 0; i < dirs.N(); i++ {
		if lens[i] == 0 {
			continue
		}
		c := res.Assign[i]
		res.Sizes[c]++
		sum := sums.Vec(c)
		for f, x := range dirs.Vec(i) {
			sum[f] += x
		}
	}
	for c := 0; c < k; c++ {
		if res.Sizes[c] == 0 || vecmath.Normalize(res.Centroids.Vec(c), sums.Vec(c)) == 0 {
			reseed(dirs, lens, res.Centroids.Vec(c), rng)
		}
	}
}

func reseed(dirs *matrix.Matrix, lens []float64, centroid []float64, rng *rand.Rand) {
	for attempt := 0; attempt < 32; attempt++ {
		i := rng.Intn(dirs.N())
		if lens[i] > 0 {
			copy(centroid, dirs.Vec(i))
			return
		}
	}
	// Pathological all-zero input: any direction works.
	for f := range centroid {
		centroid[f] = 0
	}
	if len(centroid) > 0 {
		centroid[0] = 1
	}
}
