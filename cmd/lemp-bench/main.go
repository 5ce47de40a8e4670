// Command lemp-bench regenerates the paper's evaluation: every figure and
// table of §6, the caching ablation of §6.2 and a tuning ablation for §4.4,
// on synthetic datasets calibrated to the paper's Table 1.
//
// Usage:
//
//	lemp-bench -experiment all            # everything (default)
//	lemp-bench -experiment fig6b          # one experiment
//	lemp-bench -experiment table5 -scale 0.5
//	lemp-bench -quick                     # reduced grid, skips D-Tree
//	lemp-bench -experiment bulk -json out # + BENCH_bulk.json trajectory
//
// Experiment ids: fig5 fig6a fig6b fig7ab fig7cf table2 table3 table4
// table5 table6 cache tune kernels quant load bulk. With -json
// each experiment also writes a machine-readable BENCH_<id>.json file for
// archiving trajectories across commits.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lemp/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment id or 'all' ("+strings.Join(bench.ExperimentIDs, " ")+")")
	scale := flag.Float64("scale", 1.0, "dataset size multiplier")
	quick := flag.Bool("quick", false, "reduced grid (fewer levels/k, no D-Tree)")
	jsonDir := flag.String("json", "", "also write BENCH_<experiment>.json trajectory files to this directory")
	verbose := flag.Bool("v", false, "progress logging")
	flag.Parse()

	r := bench.NewRunner(bench.Config{
		Scale:   *scale,
		Quick:   *quick,
		Out:     os.Stdout,
		Verbose: *verbose,
		JSONDir: *jsonDir,
	})
	if err := r.Run(*experiment); err != nil {
		fmt.Fprintln(os.Stderr, "lemp-bench:", err)
		os.Exit(1)
	}
}
