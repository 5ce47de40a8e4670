package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.50, 50}, {0.90, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// A percentile is quoted only with at least ten samples beyond it.
func TestHighestSupportedTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{99, 0.5},      // p90 of 99 has 9 beyond
		{100, 0.90},    // exactly 10 beyond p90
		{199, 0.90},    // p95 of 199 has 9 beyond
		{200, 0.95},    // exactly 10 beyond p95
		{999, 0.95},    // p99 of 999 has 9 beyond
		{1000, 0.99},   // exactly 10 beyond p99
		{2000, 0.99},   // 20 beyond p99, 2 beyond p99.9
		{10000, 0.999}, // exactly 10 beyond p99.9
	} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := samplesBeyond(1400, 0.99); got != 14 {
		t.Errorf("samplesBeyond(1400, 0.99) = %d, want 14", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{4, 8}, 3, 9}, // extrapolates past the data, as Python does
		{[]float64{3, 3, 3}, 3, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
