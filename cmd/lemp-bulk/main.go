// Command lemp-bulk runs an offline bulk top-k job: it streams a whole
// query matrix through a LEMP index with a worker pool and writes the full
// result table to disk — the throughput counterpart to the per-request
// lemp command.
//
// Queries in the library's LEMPMAT1 binary format are streamed from disk
// panel by panel (bounded memory, safe for query matrices larger than
// RAM); CSV queries are loaded into memory. With -ckpt the job writes a
// small checkpoint file every -ckpt-every flushed panels and resumes from
// it after an interruption, producing a byte-identical result file to an
// uninterrupted run; the checkpoint is removed on completion. Ctrl-C
// stops the job through the context — with -ckpt that is a clean
// suspension point, not a loss of work.
//
// Usage:
//
//	lemp-bulk -q users.q -p items.p -topk 10 -out table.lempbrs
//	lemp-bulk -q q.bin -p p.bin -theta 0.9 -out t.lempbrs -ckpt t.bulkck
//	lemp-bulk -q q.bin -p p.bin -topk 50 -out t.lempbrs -panel 512 -parallel 8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"lemp"
)

func main() {
	qPath := flag.String("q", "", "query matrix file (LEMPMAT1 streamed from disk, or CSV)")
	pPath := flag.String("p", "", "probe matrix file")
	outPath := flag.String("out", "", "result table output path (LEMPBRS1)")
	topk := flag.Int("topk", 0, "Row-Top-k: results per query; mutually exclusive with -theta")
	theta := flag.Float64("theta", 0, "Above-θ threshold (> 0); mutually exclusive with -topk")
	panel := flag.Int("panel", 0, "query panel rows (0 = default 256)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker pool size (default all cores)")
	window := flag.Int("window", 0, "max panels in flight past the flush frontier (0 = 4×parallel)")
	ckpt := flag.String("ckpt", "", "checkpoint file path; resume from it if it exists")
	ckptEvery := flag.Int("ckpt-every", 0, "checkpoint every this many flushed panels (0 = default 64)")
	algName := flag.String("alg", "", "bucket algorithm override: L LI LC I C (default: the index's; L never tunes, the others run the paper's sample tuner, §4.4, once per job)")
	phi := flag.Int("phi", 0, "fixed focus-set size φ (0 = tuned per bucket)")
	quant := flag.Bool("quant", false, "screen every candidate set with the int8 sidecars, each built on first screened use; without it the job screens only where the int8 kernels are assembly")
	stats := flag.Bool("stats", false, "print job statistics to stderr")
	flag.Parse()

	if *qPath == "" || *pPath == "" || *outPath == "" {
		fail("-q, -p and -out are required")
	}
	if (*theta > 0) == (*topk > 0) {
		fail("specify exactly one of -theta or -topk")
	}

	opts := lemp.BulkOptions{
		PanelRows:       *panel,
		Parallelism:     *parallel,
		Window:          *window,
		Checkpoint:      *ckpt,
		CheckpointEvery: *ckptEvery,
	}
	if *algName != "" {
		alg, err := lemp.ParseAlgorithm(*algName)
		if err != nil {
			fail("%v", err)
		}
		opts.Algorithm = &alg
	}

	src, closeSrc, err := openQueries(*qPath)
	if err != nil {
		fail("loading %s: %v", *qPath, err)
	}
	defer closeSrc()

	p, err := lemp.LoadMatrix(*pPath)
	if err != nil {
		fail("loading %s: %v", *pPath, err)
	}
	index, err := lemp.New(p, lemp.Options{Phi: *phi, Quantize: *quant})
	if err != nil {
		fail("building index: %v", err)
	}

	// Ctrl-C cancels the job context; with -ckpt the engine leaves a final
	// checkpoint behind so a rerun resumes instead of starting over.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var st lemp.BulkStats
	if *topk > 0 {
		st, err = index.BulkTopK(ctx, src, *outPath, *topk, opts)
	} else {
		st, err = index.BulkAboveTheta(ctx, src, *outPath, *theta, opts)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "lemp-bulk: interrupted")
			if *ckpt != "" {
				fmt.Fprintf(os.Stderr, "lemp-bulk: rerun the same command to resume from %s\n", *ckpt)
			}
			os.Exit(130)
		}
		fail("%v", err)
	}
	if *stats {
		fmt.Fprintf(os.Stderr,
			"rows=%d panels=%d resumed=%d checkpoints=%d out=%dB\n"+
				"wall=%v rows/s=%.0f candidates/query=%.1f tune=%v\n",
			st.Rows, st.Panels, st.ResumedPanels, st.Checkpoints, st.OutBytes,
			st.Wall, st.RowsPerSec(), st.Core.CandidatesPerQuery(), st.Core.TuneTime)
	}
}

// openQueries streams LEMPMAT1 files from disk and falls back to an
// in-memory load for CSV.
func openQueries(path string) (lemp.BulkQuerySource, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	var magic [8]byte
	n, _ := io.ReadFull(f, magic[:])
	f.Close()
	if n == 8 && string(magic[:]) == "LEMPMAT1" {
		pr, err := lemp.OpenQueryPanels(path)
		if err != nil {
			return nil, nil, err
		}
		return pr, func() { pr.Close() }, nil
	}
	m, err := lemp.LoadMatrix(path)
	if err != nil {
		return nil, nil, err
	}
	return lemp.BulkQueries(m), func() {}, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lemp-bulk: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
