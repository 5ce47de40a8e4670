package vecmath

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel micro-benchmarks: one query against a panel of probe directions,
// one Dot per row vs the multi-row kernels, across the dimensionality
// regimes the library targets. The panel is sized to stay cache-resident,
// matching LEMP's bucket design, so the comparison isolates the kernels
// rather than memory bandwidth.
//
//	go test -run '^$' -bench 'DotBatchPanel|Dot8Strided' ./internal/vecmath
//
// prints the dispatched and the portable kernel side by side; with
// -tags purego both rows are the portable one.

const benchRows = 512

func benchPanel(r int) (q, panel []float64, out []float64) {
	rng := rand.New(rand.NewSource(int64(r)))
	q = make([]float64, r)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	panel = make([]float64, benchRows*r)
	for i := range panel {
		panel[i] = rng.NormFloat64()
	}
	return q, panel, make([]float64, benchRows)
}

func BenchmarkDotScalarPanel(b *testing.B) {
	for _, r := range kernelDims {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			q, panel, out := benchPanel(r)
			b.SetBytes(int64(benchRows * r * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < benchRows; j++ {
					out[j] = Dot(q, panel[j*r:(j+1)*r])
				}
			}
			reportPerRow(b)
		})
	}
}

// kernelDims are the dimensions the dispatched-vs-portable benchmarks sweep;
// 50 is the benchmark catalogs' dimension.
var kernelDims = []int{16, 50, 64, 256}

// reportPerRow adds the ns/row column the kernel acceptance numbers are
// read from.
func reportPerRow(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRows), "ns/row")
}

// BenchmarkDotBatchPanel times the contiguous-panel kernel, the dispatched
// one (assembly where the CPU has it) beside the portable Go one.
func BenchmarkDotBatchPanel(b *testing.B) {
	for _, r := range kernelDims {
		for _, k := range []struct {
			name  string
			batch func(q, panel, out []float64)
		}{{"dispatch", DotBatch}, {"portable", dotBatchGo}} {
			b.Run(fmt.Sprintf("r=%d/%s", r, k.name), func(b *testing.B) {
				q, panel, out := benchPanel(r)
				b.SetBytes(int64(benchRows * r * 8))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.batch(q, panel, out)
				}
				reportPerRow(b)
			})
		}
	}
}

// BenchmarkDot8Strided times the eight-pointer kernel over rows taken from
// the panel in a scattered order, the shape of a COORD/INCR survivor set.
func BenchmarkDot8Strided(b *testing.B) {
	for _, r := range kernelDims {
		for _, k := range []struct {
			name string
			dot8 func(q, p0, p1, p2, p3, p4, p5, p6, p7 []float64, out *[8]float64)
		}{{"dispatch", Dot8}, {"portable", dot8Go}} {
			b.Run(fmt.Sprintf("r=%d/%s", r, k.name), func(b *testing.B) {
				q, panel, out := benchPanel(r)
				order := rand.New(rand.NewSource(8)).Perm(benchRows)
				row := func(i int) []float64 { return panel[order[i]*r : (order[i]+1)*r] }
				b.SetBytes(int64(benchRows * r * 8))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < benchRows; j += 8 {
						k.dot8(q, row(j), row(j+1), row(j+2), row(j+3), row(j+4), row(j+5), row(j+6), row(j+7),
							(*[8]float64)(out[j:j+8]))
					}
				}
				reportPerRow(b)
			})
		}
	}
}
