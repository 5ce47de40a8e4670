package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lemp/internal/vecmath"
)

// The harness must run every experiment end to end at a tiny scale. This
// is a smoke test for the experiment wiring, not a performance check.
func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test skipped in -short mode")
	}
	var out bytes.Buffer
	r := NewRunner(Config{Scale: 0.02, Quick: true, Out: &out})
	if err := r.Run("all"); err != nil {
		t.Fatalf("Run(all): %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"Figure 5", "Figure 6a", "Figure 6b", "Figure 7a,b", "Figure 7c-f",
		"Table 2", "Table 3", "Table 4", "Table 5", "Table 6",
		"caching effects", "ablation",
		"LEMP-LI", "Naive",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	var out bytes.Buffer
	r := NewRunner(Config{Scale: 0.02, Out: &out})
	if err := r.Run("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestDatasetCachedAcrossExperiments(t *testing.T) {
	var out bytes.Buffer
	r := NewRunner(Config{Scale: 0.02, Quick: true, Out: &out})
	a := r.get("IE-NMF")
	b := r.get("IE-NMF")
	if a != b {
		t.Error("dataset regenerated instead of cached")
	}
	if a.q.N() == 0 || a.p.N() == 0 {
		t.Error("empty dataset")
	}
	if len(a.thetas) == 0 {
		t.Error("no calibrated thresholds")
	}
}

// With JSONDir set, every experiment leaves a parseable trajectory file
// holding its measurements.
func TestBenchJSONTrajectory(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	r := NewRunner(Config{Scale: 0.02, Quick: true, Out: &out, JSONDir: dir})
	if err := r.Run("fig5"); err != nil {
		t.Fatalf("Run(fig5): %v\n%s", err, out.String())
	}
	buf, err := os.ReadFile(filepath.Join(dir, "PAPER_fig5.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr trajectory
	if err := json.Unmarshal(buf, &tr); err != nil {
		t.Fatalf("trajectory does not parse: %v", err)
	}
	if tr.Experiment != "fig5" || !tr.Quick || tr.Scale != 0.02 || tr.Kernels != vecmath.Kernels() {
		t.Fatalf("trajectory header: %+v", tr)
	}
	if len(tr.Measurements) == 0 {
		t.Fatal("trajectory holds no measurements")
	}
	for _, m := range tr.Measurements {
		if m.Method == "" || m.Dataset == "" {
			t.Fatalf("incomplete measurement: %+v", m)
		}
	}
}

func TestSICount(t *testing.T) {
	cases := map[int]string{100: "100", 1000: "1K", 10000: "10K", 1000000: "1M", 2500: "2500"}
	for n, want := range cases {
		if got := siCount(n); got != want {
			t.Errorf("siCount(%d)=%q want %q", n, got, want)
		}
	}
}
