package matrix

import "math"

// Stats summarizes a factor matrix the way the paper's Table 1 does.
type Stats struct {
	N          int     // number of vectors
	R          int     // dimension
	LengthMean float64 // mean Euclidean length
	LengthCoV  float64 // coefficient of variation of lengths (std/mean)
	NonZero    float64 // fraction of non-zero entries, in [0,1]
	MinLength  float64
	MaxLength  float64
}

// ComputeStats returns summary statistics for m. An empty matrix yields the
// zero Stats value.
func ComputeStats(m *Matrix) Stats {
	s := Stats{N: m.N(), R: m.R()}
	if s.N == 0 {
		return s
	}
	lengths := m.Lengths()
	var sum, sumSq float64
	s.MinLength = math.Inf(1)
	for _, l := range lengths {
		sum += l
		sumSq += l * l
		if l < s.MinLength {
			s.MinLength = l
		}
		if l > s.MaxLength {
			s.MaxLength = l
		}
	}
	n := float64(s.N)
	s.LengthMean = sum / n
	variance := sumSq/n - s.LengthMean*s.LengthMean
	if variance < 0 {
		variance = 0
	}
	if s.LengthMean > 0 {
		s.LengthCoV = math.Sqrt(variance) / s.LengthMean
	}
	var nz int
	for _, x := range m.Data() {
		if x != 0 {
			nz++
		}
	}
	s.NonZero = float64(nz) / float64(len(m.Data()))
	return s
}
