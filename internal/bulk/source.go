// Package bulk is the offline throughput engine: it streams a huge query
// matrix through a LEMP index as tiles of query panels × probe buckets and
// writes the full result table to disk — the paper's original batch use
// case (recommendation tables from QPᵀ) run at production scale.
//
// The serving path (internal/server) optimizes per-request latency; bulk
// optimizes occupancy. Queries are cut into cache-sized panels, each panel
// claimed dynamically by a pool of workers from a shared cursor (no static
// pre-split, so stragglers on skewed catalogs delay one panel, not a
// worker's whole share), scanned single-threaded against the bucketed
// index with per-worker scratch reuse, quantized screening active inside
// the tiles when the index carries a sidecar, and exactly one tuning pass
// for the whole job (one core.Job; each panel is a Job.Run). Panels are
// claimed as (query-panel × all-buckets) tiles rather than (panel ×
// single-bucket) ones: Row-Top-k carries a running θ′ bound across buckets,
// so splitting the bucket dimension would forfeit the pruning that makes
// LEMP fast.
//
// Completed panels pass through a bounded reordering writer that flushes
// them to the result file strictly in panel order, which makes the output
// deterministic and lets a small checkpoint (checkpoint.go) record exactly
// how much of it is durable: a killed job resumes from the checkpoint and
// produces a byte-identical file to an uninterrupted run.
package bulk

import (
	"lemp/internal/matrix"
)

// QuerySource yields contiguous panels of the query matrix. Panel must be
// safe for concurrent calls (the worker pool reads panels independently);
// returned matrices are owned by the caller.
//
// matrix.PanelReader implements it for LEMPMAT1 files; Matrix wraps an
// in-memory matrix.
type QuerySource interface {
	// R is the vector dimension.
	R() int
	// N is the total number of query vectors.
	N() int
	// Panel returns vectors [start, start+count).
	Panel(start, count int) (*matrix.Matrix, error)
}

// Matrix adapts an in-memory matrix as a QuerySource; panels alias the
// matrix storage (zero copy). The matrix must not be mutated while the job
// runs.
type Matrix struct {
	M *matrix.Matrix
}

func (s Matrix) R() int { return s.M.R() }
func (s Matrix) N() int { return s.M.N() }

func (s Matrix) Panel(start, count int) (*matrix.Matrix, error) {
	return s.M.Slice(start, start+count), nil
}

var _ QuerySource = Matrix{}
var _ QuerySource = (*matrix.PanelReader)(nil)
