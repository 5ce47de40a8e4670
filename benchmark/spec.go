package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// Workload names. Later issues refer to them, so they are fixed.
const (
	wlServeFlat    = "serve_flat"
	wlServeSkew    = "serve_skew"
	wlServeMixed   = "serve_mixed"
	wlBatchOffline = "batch_offline"
)

// Catalog shapes (paper Table 1 length skews at r = 50). Full size is 80 MB
// and 40 MB of f64, both far beyond L2; only -scale (the smoke test) shrinks
// them.
const (
	dim       = 50
	flatN     = 200_000
	flatCoV   = 0.40 // KDD's probe-length CoV: verification-bound
	skewN     = 100_000
	skewCoV   = 4.44 // IE-SVD's probe-length CoV: pruning-bound
	queryCoV  = 0.40
	numShards = 2
)

// Open-phase arrival rates in requests per second, frozen at 35-45 % of the
// closed-phase qps measured on the seed commit (2 cores: 335, 6000 and
// 1650 req/s). They are constants, not derived from the run, so that a
// faster or slower program faces the same offered load.
var openRate = map[string]float64{
	wlServeFlat:  140,
	wlServeSkew:  2000,
	wlServeMixed: 650,
}

// refSeconds is the measuring time at which the ISSUE's job sizes apply
// (4 096 top-k and 50 000 Above-θ queries for batch_offline); -seconds
// scales the job sizes and phase lengths linearly from there.
const refSeconds = 40

// metricDef names one metric with its unit; it mirrors an entry of
// BENCHMARK.json and is what a result file is validated against.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// unit returns the unit BENCHMARK.json declares for a metric. A name the
// code reports and the file does not declare is a bug in one of the two.
func (s *benchSpec) unit(name string) string {
	for _, defs := range [][]metricDef{s.EndToEnd, s.PerLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not declared in BENCHMARK.json")
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

func (s *benchSpec) hasWorkload(name string) bool {
	return slices.Contains(s.workloadNames(), name)
}

// End-to-end metrics: BENCHMARK.json gives each a bound, and every workload
// reports every one of them (the driver requires it). README.md says what
// each measures on each workload. The two timings are ratios to the
// reference work of ref.go measured in the same round, because on a shared
// machine an absolute time says more about the neighbours than about the
// program.
const (
	mSetupS  = "setup_s"
	mIndexMB = "index_mb"
	mSeqX    = "seq_x" // one caller: the program's time over the reference's
	mParX    = "par_x" // every client busy: the program's time per operation over the reference's
)

// The absolute numbers behind the two ratios, the open-phase latencies, and
// the rest of what the ISSUE lists as end-to-end: measured and printed by
// every run, declared per layer (no bound) because from run to run they
// move with the host by more than any admissible bound. README.md has the
// measured spreads.
const (
	mSeqMs        = "seq_ms"
	mQPS          = "qps"
	mRowsPerS     = "rows_per_s"
	mAboveRowsPer = "above_rows_per_s"
	mP50          = "p50_ms"
	mP95          = "p95_ms"
	mP99          = "p99_ms"
	mUpdateP50    = "update_p50_ms"
	mFailShare    = "fail_share"
	mRefSeqMs     = "ref.seq_ms"
	mRefQPS       = "ref.qps"
)
