package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs the whole harness, traced, on catalogs 50
// times smaller: every workload must finish with no failed or mismatched
// operation, report every declared metric, and write its trace. The numbers
// themselves mean nothing at this scale.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	cfg := &config{spec: spec, seed: 7, seconds: 20, scale: 0.02, trace: true, outDir: t.TempDir(), clients: numClients(), log: io.Discard}
	for _, name := range spec.workloadNames() {
		res, err := runWorkload(cfg, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, res.Failed, res.Attempted, res.Errors)
		}
		for _, d := range spec.EndToEnd {
			if m, ok := res.EndToEnd[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", name, d.Name, m)
			}
		}
		for _, d := range spec.PerLayer {
			if m, ok := res.PerLayer[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s = %+v", name, d.Name, m)
			}
		}
		for _, layer := range map[string][]string{
			wlServeFlat:    {"core.retrieve_us", "core.candidates_per_query", "vecmath.dotbatch_ns_per_row.mem", "mem.stream_gbps"},
			wlServeSkew:    {"core.retrieve_us", "server.batcher.rows_per_dispatch", "quant.screen8_ns_per_cand.llc"},
			wlServeMixed:   {"server.update.apply_us", "snapshot.restore_s", "quant.sidecar_mb", "core.delta_mass"},
			wlBatchOffline: {"bulk.wall_s", "bulk.panels", "matrix.panel_read_mb_per_s", "core.tune_s"},
		}[name] {
			if !(res.PerLayer[layer].Value > 0) {
				t.Errorf("%s: layer metric %s is %v, want it measured", name, layer, res.PerLayer[layer].Value)
			}
		}

		// The driver's line carries exactly the declared metrics.
		for traced, want := range map[bool]int{true: len(spec.PerLayer), false: len(spec.EndToEnd)} {
			var line struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(driverLine(res, traced)), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted != res.Attempted || len(line.Metrics) != want {
				t.Errorf("%s: driver line (traced %v) has correct=%v, %d metrics, want %d", name, traced, line.Correct, len(line.Metrics), want)
			}
		}

		trace, err := os.ReadFile(filepath.Join(cfg.outDir, "trace_"+name+".jsonl"))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		var first span
		if err := json.Unmarshal([]byte(strings.SplitN(string(trace), "\n", 2)[0]), &first); err != nil || first.Name == "" || first.End <= first.Start {
			t.Errorf("%s: first trace line %+v: %v", name, first, err)
		}
	}
	t.Logf("all four workloads in %v", time.Since(start).Round(time.Millisecond))
}
