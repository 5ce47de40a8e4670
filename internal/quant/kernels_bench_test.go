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
// ns/cand column; with -tags purego both rows are the portable ones. The
// MB/s column counts what a candidate touches: its r codes. Each screening
// call pays its own integer cut (intCut), as Prefix, List and Screen8 do.

const benchRows = 2048

// benchDims are the dimensions the benchmarks sweep; 50 is the benchmark
// catalogs' dimension, 100 the quant experiment's.
var benchDims = []int{16, 50, 64, 100, 256}

// benchCut discards all but a few rows of unit directions against a unit
// query at every benchDims dimension.
const benchCut = 0.9

func benchScreen(tb testing.TB, r int) (*Rows, Screen) {
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
	return qr, qr.NewScreen(qq, 1)
}

// candBytes is what screening one candidate reads: its codes.
func candBytes(r int) int64 { return int64(benchRows * r) }

// reportPerCand adds the ns/cand column the kernel acceptance numbers are
// read from.
func reportPerCand(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRows), "ns/cand")
}

// BenchmarkScreenPanel times Screen.Prefix over a whole bucket — the cut and
// the panel kernel with its integer comparison — LENGTH's candidate shape.
func BenchmarkScreenPanel(b *testing.B) {
	for _, r := range benchDims {
		for _, ks := range kernelSets {
			b.Run(fmt.Sprintf("r=%d/%s", r, ks.name), func(b *testing.B) {
				_, scr := benchScreen(b, r)
				keep := make([]int32, benchRows)
				kept := 0
				b.SetBytes(candBytes(r))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kept += ks.panel(scr.codes, scr.qr.Codes, scr.intCut(benchCut), keep)
				}
				reportPerCand(b)
				if kept > b.N*benchRows/20 {
					b.Fatalf("cutoff kept %d of %d rows: not the screening regime", kept/b.N, benchRows)
				}
			})
		}
	}
}

// BenchmarkScreen8Strided times Screen8 — the cut, the eight-pointer kernel
// and its comparison — over rows taken in a scattered order, the shape of a
// COORD/INCR survivor list.
func BenchmarkScreen8Strided(b *testing.B) {
	for _, r := range benchDims {
		for _, ks := range kernelSets {
			b.Run(fmt.Sprintf("r=%d/%s", r, ks.name), func(b *testing.B) {
				_, scr := benchScreen(b, r)
				o := rand.New(rand.NewSource(8)).Perm(benchRows)
				var d [8]int32
				kept := 0
				b.SetBytes(candBytes(r))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j+8 <= benchRows; j += 8 {
						// Walk the mask's bits as List does: the caller branches on
						// it rather than carrying it as data.
						for mask := ks.dot8(scr.codes, scr.qr.Codes, (*[8]int)(o[j:j+8]), &d, scr.intCut(benchCut)); mask != 0; mask &= mask - 1 {
							kept++
						}
					}
				}
				reportPerCand(b)
				if kept > b.N*benchRows/20 {
					b.Fatalf("cutoff kept %d of %d rows: not the screening regime", kept/b.N, benchRows)
				}
			})
		}
	}
}

// BenchmarkDotQ8 times the one-row kernel plus the integer comparison, the
// ragged tail's cost per candidate, over the same scattered order.
func BenchmarkDotQ8(b *testing.B) {
	for _, r := range benchDims {
		for _, ks := range kernelSets {
			b.Run(fmt.Sprintf("r=%d/%s", r, ks.name), func(b *testing.B) {
				qr, scr := benchScreen(b, r)
				o := rand.New(rand.NewSource(8)).Perm(benchRows)
				var mask uint8
				b.SetBytes(candBytes(r))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cut := scr.intCut(benchCut)
					for _, row := range o {
						if ks.dot(scr.codes, qr.Row(row)) >= cut {
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

// BenchmarkScreenBlock times Block.Run over a whole bucket for four queries
// (their own cuts, every prefix whole) against four Prefix calls on the same
// screens: ns/pair is per (row, query), the unit BenchmarkScreenPanel's
// ns/cand counts for one query. Off the VNNI tier both rows run the
// one-query kernel.
func BenchmarkScreenBlock(b *testing.B) {
	for _, r := range benchDims {
		var screens [4]Screen
		_, screens[0] = benchScreen(b, r)
		for j := 1; j < len(screens); j++ { // the query's codes rotated: same sum
			q := make([]int8, r)
			copy(q, screens[0].codes[j:])
			copy(q[r-j:], screens[0].codes)
			screens[j] = screens[0]
			screens[j].codes = q
		}
		out := blockOut(benchRows)
		for _, shape := range []string{"block", "one-query"} {
			b.Run(fmt.Sprintf("r=%d/%s", r, shape), func(b *testing.B) {
				var blk Block
				kept := 0
				b.SetBytes(4 * candBytes(r))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if shape == "one-query" {
						for j := range screens {
							kept += screens[j].Prefix(benchRows, benchCut, out[j])
						}
						continue
					}
					blk.Reset()
					for j := range screens {
						blk.Add(screens[j], benchRows, benchCut)
					}
					k := blk.Run(out)
					kept += k[0] + k[1] + k[2] + k[3]
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(4*b.N*benchRows), "ns/pair")
				if kept > 4*b.N*benchRows/20 {
					b.Fatalf("cutoff kept %d of %d rows: not the screening regime", kept/b.N, 4*benchRows)
				}
			})
		}
	}
}
