package bench

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"lemp/internal/data"
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
		"verification kernels",
		"latency vs load", "continuous", "overload",
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

// TestQuantScreenGuard pins the headline claim of the quant experiment: at
// the highest calibrated θ of the seeded smoke workload, the int8 sidecar
// must screen out at least 40% of the verification candidates — without
// changing a single result entry (measureQuantAbove cross-checks every
// row against the default-options index, which screens by its own rule
// where the int8 kernels are assembly, and against internal/naive). The
// workload is seeded, so this is a regression guard on screening
// effectiveness, not a flaky timing assertion.
func TestQuantScreenGuard(t *testing.T) {
	p, q := quantWorkload(0.1)
	thetas := quantThetas(p, q)
	if len(thetas) == 0 {
		t.Fatal("smoke workload calibrated no positive θ")
	}
	row, err := measureQuantAbove(p, q, thetas[len(thetas)-1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if row.candidates == 0 {
		t.Fatal("high-θ run verified no candidates; workload too small")
	}
	if row.screenRate < 0.40 {
		t.Errorf("sidecar screened %.1f%% of candidates at θ=%.4f, want >= 40%%",
			100*row.screenRate, row.theta)
	}
}

// TestQuantScreenGuardUniform is the same guard at the repository
// benchmark's shape, where a screen that leans on spectral decay has nothing
// to lean on: r = 50, directions uniform on the sphere, probe lengths at CoV
// 4.44 (the skew catalog), Above-θ at the θ that returns about ten entries
// per query. The sidecar must discard at least 90% of the candidates (a
// 16-dimension head prefix bounded by remaining mass discards 39% here) with
// the result set byte-identical to the default-options index's and equal to
// internal/naive's. measureQuantAbove fixes the bucket algorithm to LENGTH, so
// the candidate set does not depend on the wall-clock tuner and the counts are
// pinned: integer dots and one float predicate in Go decide every row, so the
// assembly and the portable (-tags purego) kernels must both land on exactly
// these. Counts on a seed, not a timing.
func TestQuantScreenGuardUniform(t *testing.T) {
	const n, m, r, perQuery = 20000, 128, 50, 10
	p := data.GenerateVectors(rand.New(rand.NewSource(171)), n, r, 4.44, 1, false)
	q := data.GenerateVectors(rand.New(rand.NewSource(172)), m, r, 0.40, 1, false)
	products := allProducts(p, q)
	sort.Float64s(products)
	theta := products[len(products)-perQuery*m]
	row, err := measureQuantAbove(p, q, theta, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("θ=%.4f: %d candidates, %d entries (calibrated for %d)", theta, row.candidates, row.results, perQuery*m)
	if row.screenRate < 0.90 {
		t.Errorf("sidecar screened %.1f%% of candidates at θ=%.4f, want >= 90%%", 100*row.screenRate, theta)
	}
	const wantScreened, wantSurvived = 58420, 1482
	if row.screened != wantScreened || row.survived != wantSurvived {
		t.Errorf("sidecar screened %d and passed %d of %d candidates (%s kernels), pinned %d and %d",
			row.screened, row.survived, row.candidates, vecmath.Kernels(), wantScreened, wantSurvived)
	}
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
		runs, speedup, err := bulkComparison(runtime.NumCPU())
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

// With JSONDir set, every experiment leaves a parseable trajectory file
// holding its measurements.
func TestBenchJSONTrajectory(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	r := NewRunner(Config{Scale: 0.02, Quick: true, Out: &out, JSONDir: dir})
	if err := r.Run("fig5"); err != nil {
		t.Fatalf("Run(fig5): %v\n%s", err, out.String())
	}
	buf, err := os.ReadFile(filepath.Join(dir, "BENCH_fig5.json"))
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

// BenchmarkServingLoad runs the closed-loop latency-vs-load experiment
// once per iteration; CI's bench-smoke job runs it at -benchtime=1x as the
// serving-envelope regression canary (the run itself asserts that the
// server's shed counter matches the client-observed 429s).
func BenchmarkServingLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var out bytes.Buffer
		r := NewRunner(Config{Scale: 0.02, Quick: true, Out: &out})
		if err := r.Run("load"); err != nil {
			b.Fatalf("Run(load): %v\n%s", err, out.String())
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
