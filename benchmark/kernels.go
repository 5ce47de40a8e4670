package main

import (
	"time"

	"lemp/internal/data"
	"lemp/internal/quant"
	"lemp/internal/vecmath"
)

// Kernel rows: the verification and screening kernels called directly, on
// a panel the size of one probe bucket (.llc: it stays in cache between
// passes) and on a whole flat-sized catalog (.mem: 80 MB of f64, far beyond
// L2, streamed once per pass). They are the same whatever the workload.
//
// Bytes are computed (rows × r × 8), not counted by hardware; the copy
// bandwidth they are held against is measured here with copy().
const (
	llcRows      = 2048 // one bucket: 800 kB of f64, 100 kB of int8
	kernelPasses = 3    // best of, per row of the table
)

var kernelSink float64

// bestOf returns the shortest of a few timed runs of fn.
func bestOf(passes int, fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < passes; i++ {
		t0 := time.Now()
		fn()
		best = min(best, time.Since(t0))
	}
	return best
}

func kernelRows(cfg *config, res *workloadResult) {
	rng := newRand(cfg.seed, streamKernels)
	n := cfg.scaled(flatN, 4096)
	panel := data.GenerateVectors(rng, n, dim, flatCoV, 1, false)
	q := data.GenerateVectors(rng, 1, dim, 0, 1, false).Vec(0)
	pd := panel.Data()
	out := make([]float64, n)
	perRow := func(d time.Duration, rows, reps int) float64 {
		return float64(d.Nanoseconds()) / float64(rows*reps)
	}

	// vecmath.DotBatch: contiguous panel times one query.
	llcReps := max(1, n/llcRows)
	d := bestOf(kernelPasses, func() {
		for i := 0; i < llcReps; i++ {
			vecmath.DotBatch(q, pd[:llcRows*dim], out[:llcRows])
		}
	})
	res.layer("vecmath.dotbatch_ns_per_row.llc", perRow(d, llcRows, llcReps))
	d = bestOf(kernelPasses, func() { vecmath.DotBatch(q, pd, out) })
	res.layer("vecmath.dotbatch_ns_per_row.mem", perRow(d, n, 1))
	res.layer("vecmath.dotbatch_gbps.mem", float64(n*dim*8)/float64(d.Nanoseconds()))

	// vecmath.Dot8: eight non-adjacent rows per call, the shape of a
	// strided candidate set. Row i+j·stride keeps every row on its own
	// page-distant stream.
	stride := n / 8
	var o8 [8]float64
	d = bestOf(kernelPasses, func() {
		for i := 0; i < stride; i++ {
			row := func(j int) []float64 { return pd[(i+j*stride)*dim : (i+j*stride+1)*dim] }
			vecmath.Dot8(q, row(0), row(1), row(2), row(3), row(4), row(5), row(6), row(7), &o8)
			kernelSink += o8[0]
		}
	})
	res.layer("vecmath.dot8_ns_per_row.mem", perRow(d, stride*8, 1))

	// Copy bandwidth: bytes read plus bytes written.
	dst := make([]float64, len(pd))
	d = bestOf(kernelPasses, func() { copy(dst, pd) })
	res.layer("mem.stream_gbps", float64(2*len(pd)*8)/float64(d.Nanoseconds()))
	kernelSink += dst[len(dst)-1] + out[0]

	// quant: the int8 screen and the int8 dot over the sidecar of the same
	// rows.
	rows := quant.QuantizeRows(pd, dim)
	codes := make([]int8, dim)
	qq, ok := quant.QuantizeQuery(codes, q)
	if !ok {
		res.notef("kernel rows: the query could not be quantized; quant rows skipped")
		return
	}
	scr := rows.NewScreen(qq, 1)
	lens := [8]float64{1, 1, 1, 1, 1, 1, 1, 1}
	var head [8]int32
	var mask uint8
	screen := func(count int) {
		for i := 0; i+8 <= count; i += 8 {
			mask ^= scr.Screen8(i, i+1, i+2, i+3, i+4, i+5, i+6, i+7, &lens, 0.5, &head)
		}
	}
	d = bestOf(kernelPasses, func() {
		for i := 0; i < llcReps; i++ {
			screen(llcRows)
		}
	})
	res.layer("quant.screen8_ns_per_cand.llc", perRow(d, llcRows, llcReps))
	d = bestOf(kernelPasses, func() { screen(n) })
	res.layer("quant.screen8_ns_per_cand.mem", perRow(d, n/8*8, 1))
	var acc int32
	d = bestOf(kernelPasses, func() {
		for i := 0; i < n; i++ {
			acc += quant.DotQ8(codes, rows.Row(i))
		}
	})
	res.layer("quant.dotq8_ns_per_cand.mem", perRow(d, n, 1))
	kernelSink += float64(mask) + float64(acc)
}
