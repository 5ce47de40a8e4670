package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (0 for an empty slice). xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because that
// is what the driver computes spreads with. It needs at least two values;
// with fewer both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the inter-quartile distance as a share of the median: the
// steadiness measure the driver and -compare hold against a metric's bound.
func spread(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// percentile returns the p-th percentile (0 < p <= 1) of ascending-sorted
// values by the nearest-rank rule: the smallest value with at least p·n
// values at or below it.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// samplesBeyond is how many of n samples lie strictly above the p-th
// percentile's rank.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// tailLadder lists the tail percentiles a report may quote, lowest first.
var tailLadder = []float64{0.90, 0.95, 0.99, 0.999}

// highestSupported returns the highest percentile of tailLadder that has at
// least ten samples beyond it among n (the choosing-metrics rule), or 0.5
// when even p90 has fewer.
func highestSupported(n int) float64 {
	best := 0.5
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// msOf converts durations to ascending-sorted milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// usOf converts durations to ascending-sorted microseconds.
func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(out)
	return out
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
