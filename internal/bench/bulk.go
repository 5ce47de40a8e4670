package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"lemp/internal/bulk"
	"lemp/internal/core"
	"lemp/internal/data"
	"lemp/internal/retrieval"
)

// The bulk experiment measures what the offline engine buys over driving
// the serving path row by row: one tuning pass for the whole job instead
// of one per call, panel-level batching of per-call overheads, and dynamic
// panel claiming across all cores. Both sides compute identical results —
// the measurement cross-checks every row against the serving answers
// before reporting a number.

// bulkRun is one measured configuration of the bulk comparison.
type bulkRun struct {
	method  string
	wall    time.Duration
	rowsSec float64
}

// bulkComparison runs the serving loop and the bulk engine on the Smoke
// catalog and returns (measurements, bulk-vs-serving speedup). The bulk
// job runs FIRST so it pays the lazy per-bucket index builds and the
// serving loop inherits them — the conservative ordering for a guard.
func bulkComparison(parallel int) ([]bulkRun, float64, error) {
	q, p := data.Smoke.Generate()
	ix, err := core.NewIndex(p, core.Options{})
	if err != nil {
		return nil, 0, err
	}
	const k = 10
	dir, err := os.MkdirTemp("", "lemp-bulk-bench")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)

	out := filepath.Join(dir, "smoke.lempbrs")
	st, err := bulk.Run(context.Background(), ix, bulk.Matrix{M: q}, out, bulk.Config{
		K: k, PanelRows: 64, Parallelism: parallel,
	})
	if err != nil {
		return nil, 0, err
	}
	res, err := bulk.ReadResults(out)
	if err != nil {
		return nil, 0, err
	}

	// The serving loop: one Retrieve-equivalent call per row, tuning and
	// all, exactly what a caller without the bulk engine would write.
	want := make(retrieval.TopK, q.N())
	seqStart := time.Now()
	for i := 0; i < q.N(); i++ {
		rows, _, err := ix.Retrieve(context.Background(), q.Slice(i, i+1), core.Problem{K: k}, nil, core.RunOptions{Parallelism: 1})
		if err != nil {
			return nil, 0, err
		}
		want[i] = rows[0]
	}
	seq := time.Since(seqStart)

	// Cross-check: the bulk file must hold exactly the serving answers.
	for i, row := range want {
		for j := range row {
			row[j].Query = i
		}
		bulk.CanonicalizeTopK(row)
		if !reflect.DeepEqual(res.Rows[i], row) {
			return nil, 0, fmt.Errorf("bulk row %d differs from serving path: %v vs %v", i, res.Rows[i], row)
		}
	}

	rows := float64(q.N())
	runs := []bulkRun{
		{method: "per-row-serve", wall: seq, rowsSec: rows / seq.Seconds()},
		{method: fmt.Sprintf("bulk(p=%d)", parallel), wall: st.Wall, rowsSec: st.RowsPerSec()},
	}
	return runs, seq.Seconds() / st.Wall.Seconds(), nil
}

// bulkThroughput is the "bulk" experiment: the serving loop against the
// bulk engine single-threaded and at full parallelism.
func (r *Runner) bulkThroughput() error {
	r.header("Bulk top-k engine: tiled panels vs per-row serving loop (Smoke, Row-Top-10)")
	parallels := []int{1, runtime.NumCPU()}
	if parallels[1] == 1 {
		parallels = parallels[:1]
	}
	var ms []Measurement
	for _, par := range parallels {
		runs, speedup, err := bulkComparison(par)
		if err != nil {
			return err
		}
		for _, run := range runs {
			fmt.Fprintf(r.cfg.Out, "  %-16s %12s  (%8.0f rows/s)\n", run.method, fmtDur(run.wall), run.rowsSec)
			ms = append(ms, Measurement{
				Dataset: "Smoke",
				Problem: "top10",
				Method:  run.method,
				Total:   run.wall,
			})
		}
		fmt.Fprintf(r.cfg.Out, "  -> bulk(p=%d) speedup over per-row serving: %.1fx (results cross-checked)\n", par, speedup)
	}
	fmt.Fprintln(r.cfg.Out)
	r.record(ms)
	return nil
}
