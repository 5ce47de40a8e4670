// Command lemp runs large-entry retrieval on factor-matrix files: the
// Above-θ problem (all entries of QᵀP at or above a threshold) or the
// Row-Top-k problem (the k largest entries per row).
//
// Matrices are read with format auto-detection (the library's LEMPMAT1
// binary format or CSV, one vector per line); generate inputs with
// lemp-datagen or bring your own factors. Retrieval fans out over all CPU
// cores by default; pass -parallel 1 to reproduce the paper's
// single-threaded measurements. Ctrl-C cancels a long run cleanly through
// the retrieval context.
//
// Usage:
//
//	lemp -q users.q -p items.p -topk 10                 # top-10 per user
//	lemp -q q.csv -p p.csv -theta 0.9 -out result.csv   # Above-θ
//	lemp -q q.csv -p p.csv -theta 0.9 -alg LC -stats
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"

	"lemp"
)

func main() {
	qPath := flag.String("q", "", "query matrix file (columns of Q as vectors)")
	pPath := flag.String("p", "", "probe matrix file (columns of P as vectors)")
	theta := flag.Float64("theta", 0, "Above-θ threshold (> 0); mutually exclusive with -topk")
	topk := flag.Int("topk", 0, "Row-Top-k: number of results per query; mutually exclusive with -theta")
	algName := flag.String("alg", "LI", "bucket algorithm: L LI LC I C (L never tunes; the others run the paper's sample tuner, §4.4, on each new problem)")
	phi := flag.Int("phi", 0, "fixed focus-set size φ (0 = tuned per bucket)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "retrieval goroutines (default all cores; use -parallel 1 for the paper's single-threaded setting)")
	outPath := flag.String("out", "", "write results as CSV (query,probe,value); default stdout")
	stats := flag.Bool("stats", false, "print run statistics to stderr")
	flag.Parse()

	if *qPath == "" || *pPath == "" {
		fail("both -q and -p are required")
	}
	if (*theta > 0) == (*topk > 0) {
		fail("specify exactly one of -theta or -topk")
	}
	alg, err := lemp.ParseAlgorithm(*algName)
	if err != nil {
		fail("%v", err)
	}

	q, err := lemp.LoadMatrix(*qPath)
	if err != nil {
		fail("loading %s: %v", *qPath, err)
	}
	p, err := lemp.LoadMatrix(*pPath)
	if err != nil {
		fail("loading %s: %v", *pPath, err)
	}

	index, err := lemp.New(p, lemp.Options{Phi: *phi})
	if err != nil {
		fail("building index: %v", err)
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fail("creating %s: %v", *outPath, err)
		}
		defer f.Close()
		out = f
	}
	w := bufio.NewWriter(out)
	defer w.Flush()

	writeEntry := func(e lemp.Entry) {
		w.WriteString(strconv.Itoa(e.Query))
		w.WriteByte(',')
		w.WriteString(strconv.Itoa(e.Probe))
		w.WriteByte(',')
		w.WriteString(strconv.FormatFloat(e.Value, 'g', -1, 64))
		w.WriteByte('\n')
	}

	// Interrupts cancel the retrieval context: the scan aborts at the next
	// bucket boundary instead of running to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One call, assembled from options: the mode plus per-call policy
	// (algorithm, parallelism, streaming).
	opts := []lemp.Option{lemp.WithAlgorithm(alg), lemp.WithParallelism(*parallel)}
	if *theta > 0 {
		opts = append(opts, lemp.AboveTheta(*theta), lemp.Stream(writeEntry))
	} else {
		opts = append(opts, lemp.TopK(*topk))
	}
	res, err := index.Retrieve(ctx, q, opts...)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "lemp: interrupted")
			os.Exit(130)
		}
		fail("%v", err)
	}
	for _, row := range res.TopK {
		for _, e := range row {
			writeEntry(e)
		}
	}
	if *stats {
		st := res.Stats
		fmt.Fprintf(os.Stderr,
			"queries=%d probes=%d buckets=%d results=%d candidates/query=%.1f\n"+
				"prep=%v tune=%v retrieval=%v total=%v\n",
			st.Queries, index.N(), index.NumBuckets(), st.Results, st.CandidatesPerQuery(),
			index.PrepTime(), st.TuneTime, st.RetrievalTime, index.PrepTime()+st.TuneTime+st.RetrievalTime)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lemp: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
