package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"lemp/internal/bulk"
	"lemp/internal/core"
	"lemp/internal/data"
	"lemp/internal/retrieval"
)

// bulkRun is one measured side of the bulk comparison.
type bulkRun struct {
	method  string
	wall    time.Duration
	rowsSec float64
}

// bulkComparison runs a loop of per-row serving calls and a bulk job on the
// Smoke catalog and returns (measurements, bulk-vs-serving speedup). Both
// sides compute identical results: every row of the bulk file is checked
// against the serving answers before a number is reported. The bulk job runs
// FIRST so it pays the lazy per-bucket index builds and the serving loop
// inherits them — the conservative ordering for a guard.
func bulkComparison(dir string, parallel int) ([]bulkRun, float64, error) {
	q, p := data.Smoke.Generate()
	ix, err := core.NewIndex(p, core.Options{})
	if err != nil {
		return nil, 0, err
	}
	const k = 10
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

// TestBulkThroughputGuard pins the headline claim of the bulk engine: on
// the Smoke catalog, a bulk Row-Top-10 job must process rows at least
// 1.5× as fast as a loop of per-row serving calls — while producing
// exactly the serving path's results (bulkComparison cross-checks every
// row and fails on any mismatch). The margin is far below the typical
// 3x+ (the serving loop re-tunes per call), but one wall-clock sample under
// a parallel `go test ./...` has read 1.47x: the ratio is measured up to
// three times and the guard fails only if no attempt reaches the bar. The
// cross-check runs on every attempt.
func TestBulkThroughputGuard(t *testing.T) {
	const bar, attempts = 1.5, 3
	var best float64
	for i := 0; i < attempts && best < bar; i++ {
		runs, speedup, err := bulkComparison(t.TempDir(), runtime.NumCPU())
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range runs {
			t.Logf("attempt %d: %-16s %12v  (%8.0f rows/s)", i+1, run.method, run.wall, run.rowsSec)
		}
		best = max(best, speedup)
	}
	if best < bar {
		t.Errorf("bulk engine %.2fx over per-row serving loop in the best of %d attempts, want >= %.1fx", best, attempts, bar)
	}
}
