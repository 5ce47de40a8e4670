// Package matrix defines the factor-matrix type shared by all LEMP
// components.
//
// The paper works with tall-and-skinny factor matrices Q (r×m) and P (r×n)
// whose columns are query and probe vectors. This package stores one matrix
// as n contiguous vectors of dimension r, i.e. the paper's column j is
// Vec(j). Contiguous storage keeps inner products cache-friendly and lets
// buckets alias sub-ranges without copying.
package matrix

import (
	"errors"
	"fmt"
	"math/rand"

	"lemp/internal/vecmath"
)

// Matrix is a collection of n vectors of fixed dimension r. The zero value
// is an empty matrix of rank 0.
type Matrix struct {
	r    int
	data []float64
}

// New returns an r-dimensional matrix with n zero vectors.
func New(r, n int) *Matrix {
	if r < 0 || n < 0 {
		panic("matrix: negative dimension")
	}
	return &Matrix{r: r, data: make([]float64, r*n)}
}

// FromVectors builds a matrix from the given vectors, which must all have
// equal length. The vectors are copied.
func FromVectors(vs [][]float64) (*Matrix, error) {
	if len(vs) == 0 {
		return &Matrix{}, nil
	}
	r := len(vs[0])
	m := New(r, len(vs))
	for i, v := range vs {
		if len(v) != r {
			return nil, fmt.Errorf("matrix: vector %d has dimension %d, want %d", i, len(v), r)
		}
		copy(m.Vec(i), v)
	}
	return m, nil
}

// FromData wraps an existing backing slice holding n vectors of dimension r.
// The slice is used directly (not copied); len(data) must equal r*n.
func FromData(r, n int, data []float64) (*Matrix, error) {
	if r < 0 || n < 0 {
		return nil, errors.New("matrix: negative dimension")
	}
	if len(data) != r*n {
		return nil, fmt.Errorf("matrix: data length %d does not match %d×%d", len(data), r, n)
	}
	return &Matrix{r: r, data: data}, nil
}

// R returns the vector dimension (the paper's rank r).
func (m *Matrix) R() int { return m.r }

// N returns the number of vectors (the paper's m for queries, n for probes).
func (m *Matrix) N() int {
	if m.r == 0 {
		return 0
	}
	return len(m.data) / m.r
}

// Vec returns vector i as a slice aliasing the matrix storage.
func (m *Matrix) Vec(i int) []float64 {
	return m.data[i*m.r : (i+1)*m.r : (i+1)*m.r]
}

// Data returns the backing slice (vectors stored contiguously).
func (m *Matrix) Data() []float64 { return m.data }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{r: m.r, data: make([]float64, len(m.data))}
	copy(c.data, m.data)
	return c
}

// Head returns a matrix aliasing the first n vectors of m.
func (m *Matrix) Head(n int) *Matrix {
	if n > m.N() {
		panic("matrix: Head beyond matrix size")
	}
	return &Matrix{r: m.r, data: m.data[:n*m.r]}
}

// Slice returns a matrix aliasing vectors [i, j) of m: the two share
// storage.
func (m *Matrix) Slice(i, j int) *Matrix {
	if i < 0 || j < i || j > m.N() {
		panic(fmt.Sprintf("matrix: Slice [%d,%d) out of range [0,%d)", i, j, m.N()))
	}
	return &Matrix{r: m.r, data: m.data[i*m.r : j*m.r : j*m.r]}
}

// Lengths returns the Euclidean norms of all vectors.
func (m *Matrix) Lengths() []float64 {
	out := make([]float64, m.N())
	for i := range out {
		out[i] = vecmath.Norm(m.Vec(i))
	}
	return out
}

// Product computes the full product entry [QᵀP]ij = qᵢᵀpⱼ for this matrix
// as Q and the argument as P. It exists for small-scale testing; the whole
// point of LEMP is to avoid calling this at scale.
func (m *Matrix) Product(p *Matrix, i, j int) float64 {
	return vecmath.Dot(m.Vec(i), p.Vec(j))
}

// FillRandom fills the matrix with independent N(0,1) entries drawn from rng.
func (m *Matrix) FillRandom(rng *rand.Rand) {
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
}
