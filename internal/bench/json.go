package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"lemp/internal/vecmath"
)

// record adds printed measurements to the trajectory buffer; the table
// printers call it so every experiment that reports Measurements is
// archived without per-experiment wiring.
func (r *Runner) record(ms []Measurement) {
	r.collect = append(r.collect, ms...)
}

// trajectory is the schema of one BENCH_<experiment>.json file. Durations
// are reported in seconds — the unit benchstat-style tooling diffs across
// commits — alongside the work counters the paper's tables show.
type trajectory struct {
	Experiment string  `json:"experiment"`
	Scale      float64 `json:"scale"`
	Quick      bool    `json:"quick"`
	// Kernels is vecmath.Kernels(): a slow host is told from a slow build
	// ("avx2" or "portable") when trajectories are compared.
	Kernels      string       `json:"kernels"`
	Measurements []jsonResult `json:"measurements"`
}

type jsonResult struct {
	Dataset      string   `json:"dataset"`
	Problem      string   `json:"problem"`
	Method       string   `json:"method"`
	TotalSeconds float64  `json:"total_seconds"`
	PrepSeconds  float64  `json:"prep_seconds,omitempty"`
	CandPerQuery float64  `json:"candidates_per_query,omitempty"`
	Results      int64    `json:"results,omitempty"`
	NumBuckets   int      `json:"num_buckets,omitempty"`
	Skipped      bool     `json:"skipped,omitempty"`
	Recall       *float64 `json:"recall,omitempty"`
}

// writeJSON renders one experiment's measurements to
// <JSONDir>/BENCH_<id>.json, creating the directory on first use.
func (r *Runner) writeJSON(id string, ms []Measurement) error {
	if err := os.MkdirAll(r.cfg.JSONDir, 0o755); err != nil {
		return err
	}
	tr := trajectory{
		Experiment:   id,
		Scale:        r.cfg.Scale,
		Quick:        r.cfg.Quick,
		Kernels:      vecmath.Kernels(),
		Measurements: make([]jsonResult, 0, len(ms)),
	}
	for _, m := range ms {
		tr.Measurements = append(tr.Measurements, jsonResult{
			Dataset:      m.Dataset,
			Problem:      m.Problem,
			Method:       m.Method,
			TotalSeconds: m.Total.Seconds(),
			PrepSeconds:  m.Prep.Seconds(),
			CandPerQuery: m.CandPerQ,
			Results:      m.Results,
			NumBuckets:   m.NumBuckets,
			Skipped:      m.Skipped,
			Recall:       m.Recall,
		})
	}
	buf, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(r.cfg.JSONDir, fmt.Sprintf("BENCH_%s.json", id))
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
