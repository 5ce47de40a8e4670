// Package vecmath provides the dense vector primitives used throughout the
// LEMP library: inner products, Euclidean norms and normalization.
//
// Vectors are plain []float64 slices. All functions are allocation-free
// unless documented otherwise, because they sit on the hot path of every
// retrieval algorithm.
package vecmath

import "math"

// Norm2 returns the squared Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// smallestNormal is the smallest positive normal float64, 2⁻¹⁰²².
const smallestNormal = 0x1p-1022

// Norm returns the Euclidean norm ‖v‖: the square root of Norm2's plain
// sum, except where that sum falls below the smallest normal float64. There
// the squares of v's coordinates underflow (a row of 1e-163s sums to 0), so
// the length is taken of v scaled by the power of two that brings its
// largest |coordinate| into [½, 1) — exact, so the length carries Norm2's
// rounding error — and scaled back. A length that is itself subnormal is
// returned as 0, the length the plain sum gave such a row: its reciprocal
// overflows, and no relative error bound covers it.
func Norm(v []float64) float64 {
	if s := Norm2(v); !(s < smallestNormal) { // NaN takes this branch too
		return math.Sqrt(s)
	}
	var m float64
	for _, x := range v {
		m = max(m, math.Abs(x))
	}
	_, e := math.Frexp(m)
	var s float64
	for _, x := range v {
		x = math.Ldexp(x, -e)
		s += x * x
	}
	if l := math.Ldexp(math.Sqrt(s), e); l >= smallestNormal {
		return l
	}
	return 0
}

// Normalize writes v/‖v‖ into dst and returns ‖v‖. If v is the zero vector,
// dst is zeroed and 0 is returned; callers treat zero vectors as having no
// direction (their inner product with anything is 0). dst and v may alias.
func Normalize(dst, v []float64) float64 {
	n := Norm(v)
	if n == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return 0
	}
	inv := 1 / n
	for i, x := range v {
		dst[i] = x * inv
	}
	return n
}

// Scale writes s*v into dst. dst and v may alias.
func Scale(dst, v []float64, s float64) {
	for i, x := range v {
		dst[i] = x * s
	}
}

// Clamp returns x limited to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Dist returns the Euclidean distance ‖a-b‖.
func Dist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: Dist on vectors of unequal length")
	}
	var s float64
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
