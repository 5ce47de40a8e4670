package lemp

import (
	"context"

	"lemp/internal/bulk"
	"lemp/internal/matrix"
)

// Bulk (offline) top-k jobs, re-exported from the internal bulk package:
// the throughput counterpart to Retrieve. A bulk job streams the whole
// query matrix through the index as query panels claimed by a worker pool,
// tunes once for the entire job, and writes the full result table to disk
// with bounded memory — the paper's original batch use case
// (recommendation tables from QPᵀ) at production scale. The output is a
// pure function of (index, queries, problem): rows in canonical order,
// byte-identical across runs and across checkpoint/resume.

// BulkStats reports one bulk run.
type BulkStats = bulk.Stats

// BulkResults is a decoded bulk result file; see ReadBulkResults.
type BulkResults = bulk.Results

// BulkQuerySource yields contiguous panels of the query matrix to a bulk
// job; implementations must allow concurrent Panel calls. Use BulkQueries
// for an in-memory matrix or OpenQueryPanels to stream a LEMPMAT1 file.
type BulkQuerySource = bulk.QuerySource

// QueryPanels streams panels of an on-disk LEMPMAT1 matrix without loading
// it into memory; Close when the job is done.
type QueryPanels = matrix.PanelReader

// BulkOptions shape a bulk job; the zero value selects throughput-oriented
// defaults (256-row panels, all cores, no checkpointing). A job runs the
// index's bucket algorithm and fits it once, on its first panel.
type BulkOptions struct {
	// PanelRows is the query-panel height (default 256).
	PanelRows int
	// Parallelism is the worker-pool size (default all cores).
	Parallelism int
	// Window bounds how many panels past the flush frontier may be in
	// flight (default 4×Parallelism); it caps result memory held for
	// out-of-order panels.
	Window int
	// Checkpoint, when non-empty, names the BULKCK checkpoint file: the
	// job checkpoints there every CheckpointEvery flushed panels
	// (default 64), resumes from it when it exists, and removes it on
	// completion. A resumed job writes a byte-identical result file to
	// an uninterrupted one.
	Checkpoint      string
	CheckpointEvery int
}

func (o BulkOptions) config() bulk.Config {
	return bulk.Config{
		PanelRows:       o.PanelRows,
		Parallelism:     o.Parallelism,
		Window:          o.Window,
		Checkpoint:      o.Checkpoint,
		CheckpointEvery: o.CheckpointEvery,
	}
}

// BulkTopK streams every query in src through the index and writes each
// query's k largest products to outPath as a LEMPBRS1 result table
// (readable with ReadBulkResults). Rows are exactly what Retrieve with
// TopK(k) returns for the same query, in canonical (value desc, probe asc)
// order. The Index contract applies job-wide: no mutations and no other
// retrieval calls while the job runs.
func (ix *Index) BulkTopK(ctx context.Context, src BulkQuerySource, outPath string, k int, opts BulkOptions) (BulkStats, error) {
	cfg := opts.config()
	cfg.K = k
	return bulk.Run(ctx, ix.inner, src, outPath, cfg)
}

// BulkAboveTheta streams every query in src through the index and writes
// each query's products ≥ theta to outPath, rows in canonical (probe asc)
// order. See BulkTopK for the contract.
func (ix *Index) BulkAboveTheta(ctx context.Context, src BulkQuerySource, outPath string, theta float64, opts BulkOptions) (BulkStats, error) {
	cfg := opts.config()
	cfg.Theta = theta
	return bulk.Run(ctx, ix.inner, src, outPath, cfg)
}

// BulkQueries adapts an in-memory matrix as a bulk query source (zero
// copy; the matrix must not be mutated while the job runs).
func BulkQueries(m *Matrix) BulkQuerySource { return bulk.Matrix{M: m} }

// OpenQueryPanels opens an on-disk LEMPMAT1 matrix for panel streaming, so
// bulk jobs read queries with bounded memory instead of loading the whole
// matrix.
func OpenQueryPanels(path string) (*QueryPanels, error) {
	return matrix.OpenPanelReader(path)
}

// ReadBulkResults loads a bulk result file written by BulkTopK or
// BulkAboveTheta.
func ReadBulkResults(path string) (*BulkResults, error) { return bulk.ReadResults(path) }
