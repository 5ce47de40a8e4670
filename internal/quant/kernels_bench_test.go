package quant

import (
	"fmt"
	"math/rand"
	"testing"

	"lemp/internal/vecmath"
)

// Screening micro-benchmarks: what the verifier pays per candidate for the
// integer dot plus the predicate, in the three shapes candidate sets take.
// The panel holds one bucket's worth of unit directions (100 kB of codes at
// r = 50: cache-resident, as buckets are sized to be) and the cutoff sits
// where nearly every row is discarded, the regime screening is for.
//
//	go test -run '^$' -bench 'Screen|DotQ8' ./internal/quant
//
// prints the dispatched and the portable kernels side by side with an
// ns/cand column; with -tags purego both rows are the portable ones.

const benchRows = 2048

// benchDims are the dimensions the benchmarks sweep; 50 is the benchmark
// catalogs' dimension, 100 the quant experiment's.
var benchDims = []int{16, 50, 64, 100, 256}

// benchCut discards all but a few rows of unit directions against a unit
// query at every benchDims dimension.
const benchCut = 0.9

func benchScreen(tb testing.TB, r int) (*Rows, Screen, []float64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(r)))
	unit := func(v []float64) {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		vecmath.Normalize(v, v)
	}
	rows := make([]float64, benchRows*r)
	for i := 0; i < benchRows; i++ {
		unit(rows[i*r : (i+1)*r])
	}
	q := make([]float64, r)
	unit(q)
	qr := QuantizeRows(rows, r)
	qq, ok := QuantizeQuery(make([]int8, r), q)
	if !ok {
		tb.Fatal("query failed to quantize")
	}
	lens := make([]float64, benchRows)
	for i := range lens {
		lens[i] = 1
	}
	return qr, qr.NewScreen(qq, 1), lens
}

// reportPerCand adds the ns/cand column the kernel acceptance numbers are
// read from.
func reportPerCand(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRows), "ns/cand")
}

// BenchmarkScreenPanel times Screen.Prefix over a whole bucket — the panel
// kernel and the predicate pass — LENGTH's candidate shape.
func BenchmarkScreenPanel(b *testing.B) {
	for _, r := range benchDims {
		for _, ks := range kernelSets {
			b.Run(fmt.Sprintf("r=%d/%s", r, ks.name), func(b *testing.B) {
				qr, scr, lens := benchScreen(b, r)
				dots, keep := make([]int32, benchRows), make([]int32, benchRows)
				kept := 0
				b.SetBytes(int64(benchRows * r))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ks.panel(scr.codes, qr.Codes, dots)
					kept += scr.siftPrefix(lens, benchCut, dots, keep)
				}
				reportPerCand(b)
				if kept > b.N*benchRows/20 {
					b.Fatalf("cutoff kept %d of %d rows: not the screening regime", kept/b.N, benchRows)
				}
			})
		}
	}
}

// BenchmarkScreen8Strided times Screen8's two halves — the eight-pointer
// kernel and the fused predicate — over rows taken in a scattered order,
// the shape of a COORD/INCR survivor list.
func BenchmarkScreen8Strided(b *testing.B) {
	for _, r := range benchDims {
		for _, ks := range kernelSets {
			b.Run(fmt.Sprintf("r=%d/%s", r, ks.name), func(b *testing.B) {
				qr, scr, lens := benchScreen(b, r)
				o := rand.New(rand.NewSource(8)).Perm(benchRows)
				l8 := (*[8]float64)(lens)
				var d [8]int32
				var mask uint8
				b.SetBytes(int64(benchRows * r))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j+8 <= benchRows; j += 8 {
						g := (*[8]int)(o[j : j+8])
						ks.dot8(scr.codes, qr.Codes, g, &d)
						mask ^= scr.mask8(g, l8, benchCut, &d)
					}
				}
				reportPerCand(b)
				_ = mask
			})
		}
	}
}

// BenchmarkDotQ8 times the one-row kernel plus the predicate, the ragged
// tail's cost per candidate, over the same scattered order.
func BenchmarkDotQ8(b *testing.B) {
	for _, r := range benchDims {
		for _, ks := range kernelSets {
			b.Run(fmt.Sprintf("r=%d/%s", r, ks.name), func(b *testing.B) {
				qr, scr, lens := benchScreen(b, r)
				o := rand.New(rand.NewSource(8)).Perm(benchRows)
				var mask uint8
				b.SetBytes(int64(benchRows * r))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, row := range o {
						if scr.keep(row, ks.dot(scr.codes, qr.Row(row)), lens[row], benchCut) {
							mask++
						}
					}
				}
				reportPerCand(b)
				_ = mask
			})
		}
	}
}
