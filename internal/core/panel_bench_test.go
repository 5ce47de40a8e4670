package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lemp/internal/matrix"
)

// BenchmarkBuildLists builds the sorted-list index of one bucket of the
// benchmark's flat catalog (n = 2 072 at r = 50: the cache-sized bucket of
// the default options), serially and over two goroutines — the unit the
// tuning pass pays once per bucket it reaches.
func BenchmarkBuildLists(b *testing.B) {
	rng := rand.New(rand.NewSource(303))
	p := genMatrix(rng, 2072, 50, 0.39, 1, false, 0, 0)
	bs, _ := bucketizeMatrix(p, nil, 0, 1, 0)
	bk := bs[0]
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buildLists(bk, workers)
			}
		})
	}
}

// topKPanelBench is the catalog BenchmarkTopKPanel scans: 120 000 probes at
// r = 50 — 48 MB of directions, more again in sorted lists, far beyond the
// last-level cache — with the flat length distribution (CoV ≈ 0.40) that
// leaves top-k retrieval verification-bound, indexed once with default options
// and once with Options.Quantize. Built once per process.
var topKPanelBench struct {
	once sync.Once
	pr   [2]*Job // default options, Quantize
	q    *matrix.Matrix
}

// BenchmarkTopKPanel times Job.Run for Row-Top-k (k = 10, tuned once before
// the clock starts) for panels of 1, 16 and 256 rows and reports the time
// per row: the curve that shows what the bucket-outer loop amortises — with
// the bucket read from memory once per panel, the per-row time must fall as
// the panel grows. The quant/ rows repeat it on the same catalog indexed
// with Options.Quantize. Where quant's kernels are assembly the default index
// screens too, through lazy sidecars, and the twins read alike; on the
// portable kernels it does not, and quant/ shows what forcing the screen on
// costs there.
func BenchmarkTopKPanel(b *testing.B) {
	tb := &topKPanelBench
	run := func(pr *Job, lo, rows int) {
		if _, _, err := pr.Run(context.Background(), tb.q.Slice(lo, lo+rows), nil); err != nil {
			b.Fatal(err)
		}
	}
	tb.once.Do(func() {
		rng := rand.New(rand.NewSource(305))
		p := genMatrix(rng, 120000, 50, 0.39, 1, false, 0, 0)
		tb.q = genMatrix(rng, 1024, 50, 0.39, 1, false, 0, 0)
		for i, quantize := range []bool{false, true} {
			ix, err := NewIndex(p.Clone(), Options{Quantize: quantize})
			if err != nil {
				b.Fatal(err)
			}
			if tb.pr[i], err = ix.NewJob(Problem{K: 10}, RunOptions{}); err != nil {
				b.Fatal(err)
			}
			run(tb.pr[i], 0, 256) // tunes, and builds the lists the panel reaches
		}
	})
	for i, prefix := range []string{"", "quant/"} {
		for _, rows := range []int{1, 16, 256} {
			b.Run(fmt.Sprintf("%srows=%d", prefix, rows), func(b *testing.B) {
				lo := 0
				for j := 0; j < b.N; j++ {
					run(tb.pr[i], lo, rows)
					if lo += rows; lo+rows > tb.q.N() {
						lo = 0
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows)/1e3, "us/row")
			})
		}
	}
}

// retrievePerRowBench is the catalog BenchmarkRetrievePerRow scans: the
// benchmark's flat catalog, 200 000 probes at r = 50 with log-normal lengths
// (CoV ≈ 0.40), indexed under L with default options, as a server indexes
// it. Built once per process.
var retrievePerRowBench struct {
	once sync.Once
	ix   *Index
	q    *matrix.Matrix
}

// BenchmarkRetrievePerRow times Index.Retrieve for top-10 at 1, 16 and 256
// rows per call, at Parallelism 1 and 2, and reports the wall time per row
// (ns/row). Every call is a one-shot Retrieve, as a server request is: a
// call at Parallelism 2 must cost no more wall time per row than at 1, which
// needs its tiles to hold more than one row.
func BenchmarkRetrievePerRow(b *testing.B) {
	tb := &retrievePerRowBench
	ctx := context.Background()
	retrieve := func(lo, rows, par int) {
		if _, _, err := tb.ix.Retrieve(ctx, tb.q.Slice(lo, lo+rows), Problem{K: 10}, nil, RunOptions{Parallelism: par}); err != nil {
			b.Fatal(err)
		}
	}
	tb.once.Do(func() {
		rng := rand.New(rand.NewSource(307))
		p := genMatrix(rng, 200000, 50, 0.39, 1, false, 0, 0)
		tb.q = genMatrix(rng, 1024, 50, 0.39, 1, false, 0, 0)
		var err error
		if tb.ix, err = NewIndex(p, Options{Algorithm: AlgL}); err != nil {
			b.Fatal(err)
		}
		retrieve(0, tb.q.N(), 1) // builds the sidecars the queries reach
	})
	for _, rows := range []int{1, 16, 256} {
		for _, par := range []int{1, 2} {
			b.Run(fmt.Sprintf("rows=%d/par=%d", rows, par), func(b *testing.B) {
				lo := 0
				for j := 0; j < b.N; j++ {
					retrieve(lo, rows, par)
					if lo += rows; lo+rows > tb.q.N() {
						lo = 0
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}
