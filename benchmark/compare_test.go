package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.10}
	mv := func(v float64, rounds ...float64) metricValue { return metricValue{Value: v, Rounds: rounds} }
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b metricValue
		want string
	}{
		{"within the bound", lower, mv(1.00, 0.99, 1.00, 1.01), mv(1.05, 1.04, 1.05, 1.06), verdictOK},
		{"slower past the bound", lower, mv(1.00, 0.99, 1.00, 1.01), mv(1.20, 1.19, 1.20, 1.21), verdictRegression},
		{"faster is never a regression", lower, mv(1.00, 0.99, 1.00, 1.01), mv(0.50, 0.49, 0.50, 0.51), verdictOK},
		{"throughput down past the bound", higher, mv(1000, 990, 1000, 1010), mv(850, 840, 850, 860), verdictRegression},
		{"throughput up", higher, mv(1000, 990, 1000, 1010), mv(1500, 1490, 1500, 1510), verdictOK},
		{"noisy rounds that overlap", lower, mv(1.00, 0.7, 1.0, 1.3, 0.8, 1.2), mv(1.20, 0.9, 1.2, 1.5, 1.0, 1.4), verdictUnresolved},
		{"noisy rounds, small difference", lower, mv(1.00, 0.7, 1.0, 1.3, 0.8, 1.2), mv(1.02, 0.7, 1.0, 1.3, 0.8, 1.25), verdictUnresolved},
		{"noisy but every round worse", lower, mv(1.00, 0.7, 1.0, 1.3, 0.8, 1.2), mv(3.00, 2.1, 3.0, 3.9, 2.4, 3.6), verdictRegression},
		{"noisy but every round better", lower, mv(3.00, 2.1, 3.0, 3.9, 2.4, 3.6), mv(1.00, 0.7, 1.0, 1.3, 0.8, 1.2), verdictOK},
		{"no rounds recorded", lower, mv(1.00), mv(1.05), verdictOK},
	} {
		if got, _ := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	if got := worseBy("higher", 1000, 900); got != 0.1 {
		t.Errorf("worseBy(higher, 1000, 900) = %v, want 0.1", got)
	}
	if got := worseBy("lower", 2, 3); got != 0.5 {
		t.Errorf("worseBy(lower, 2, 3) = %v, want 0.5", got)
	}
}

func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := writeJSONFile(spec, map[string]any{
		"workloads":  []map[string]string{{"name": "serve_flat", "why": "w"}},
		"end_to_end": []metricDef{{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.1}, {Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
	}); err != nil {
		t.Fatal(err)
	}
	file := func(name string, qps, p50 float64, failed int) string {
		res := newWorkloadResult("serve_flat", nil)
		res.EndToEnd["qps"] = metricValue{Value: qps, Unit: "1/s", Rounds: []float64{qps * 0.99, qps, qps * 1.01}}
		res.EndToEnd["p50_ms"] = metricValue{Value: p50, Unit: "ms", Rounds: []float64{p50 * 0.99, p50, p50 * 1.01}}
		res.Attempted, res.Failed = 1000, failed
		path := filepath.Join(dir, name)
		f := resultFile{Meta: runMeta{GitCommit: "abc", Seed: 1, Seconds: 20, Scale: 1}, Workloads: map[string]*workloadResult{"serve_flat": res}}
		if err := writeJSONFile(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("a.json", 1000, 2.0, 0)
	for _, tc := range []struct {
		name  string
		other string
		code  int
		says  string
	}{
		{"same", file("same.json", 1020, 2.05, 0), 0, verdictOK},
		{"slower", file("slow.json", 800, 2.0, 0), 1, verdictRegression},
		{"latency up", file("lat.json", 1000, 2.5, 0), 1, verdictRegression},
		{"more failures", file("fail.json", 1000, 2.0, 3), 1, "failed operations"},
	} {
		var out bytes.Buffer
		if code := runCompare(&out, spec, base, tc.other); code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		if !strings.Contains(out.String(), tc.says) || !strings.Contains(out.String(), "commit abc") {
			t.Errorf("%s: output lacks %q or the run metadata:\n%s", tc.name, tc.says, out.String())
		}
	}
	var out bytes.Buffer
	if code := runCompare(&out, spec, base, filepath.Join(dir, "absent.json")); code != 1 {
		t.Errorf("a missing file exited with %d", code)
	}
}
