package core

import (
	"sort"

	"lemp/internal/matrix"
	"lemp/internal/vecmath"
)

// querySet is the preprocessed query matrix: the raw rows, their normalized
// directions and their lengths, sorted by decreasing length (the paper sorts
// and normalizes queries the same way it bucketizes P — footnote 1 of §3.2).
// Sorting lets the Above-θ inner loop stop at the first query whose local
// threshold exceeds 1: every later query is shorter. Verification and the
// int8 screen read the rows, the coordinate methods the directions.
type querySet struct {
	r    int
	ids  []int32   // original query column numbers, by decreasing length
	lens []float64 // query lengths, decreasing
	q    *matrix.Matrix
	dirs []float64 // normalized directions, contiguous
}

// prepareQueries sorts and normalizes the rows of q once every row obeys
// the probes' rule (checkFinite): a query whose length is not finite has no
// direction, and its products are not values a bound can prune or a heap can
// rank, so the whole matrix is refused with an error naming the row.
func prepareQueries(q *matrix.Matrix) (*querySet, error) {
	lens, err := finiteLengths(q, "query", nil, 1, nil)
	if err != nil {
		return nil, err
	}
	m := q.N()
	r := q.R()
	qs := &querySet{
		r:    r,
		ids:  make([]int32, m),
		lens: make([]float64, m),
		q:    q,
		dirs: make([]float64, m*r),
	}
	for i := range qs.ids {
		qs.ids[i] = int32(i)
	}
	sort.SliceStable(qs.ids, func(a, b int) bool { return lens[qs.ids[a]] > lens[qs.ids[b]] })
	for i, id := range qs.ids {
		qs.lens[i] = lens[id]
		vecmath.Normalize(qs.dir(i), q.Vec(int(id)))
	}
	return qs, nil
}

func (qs *querySet) n() int { return len(qs.ids) }

// row returns the raw vector of the i-th longest query.
func (qs *querySet) row(i int) []float64 { return qs.q.Vec(int(qs.ids[i])) }

// dir returns the normalized direction of the i-th longest query.
func (qs *querySet) dir(i int) []float64 {
	return qs.dirs[i*qs.r : (i+1)*qs.r : (i+1)*qs.r]
}
