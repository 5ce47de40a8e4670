// Command benchmark is the repository's benchmark: four seeded workloads
// driven through the public entry points of the unmodified program, their
// answers checked against internal/naive, every metric printed by name with
// its unit. See README.md beside this file.
//
//	go run ./benchmark -seed 1 -out benchmark/out        all workloads, traced
//	go run ./benchmark -workload serve_skew -trace 0     one workload, end-to-end metrics only
//	go run ./benchmark -compare A.json B.json            hold two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload of -spec and print its result as one JSON line; empty runs them all")
		seed     = flag.Int64("seed", 1, "seed every input stream is derived from")
		seconds  = flag.Float64("seconds", refSeconds, "measuring time per workload; phase lengths and batch_offline's job sizes scale with it")
		trace    = flag.Int("trace", 1, "1 also runs the traced replay and reports the per-layer metrics; 0 reports end-to-end metrics only")
		out      = flag.String("out", "benchmark/out", "directory for result files, traces and temporary inputs")
		scale    = flag.Float64("scale", 1, "shrink catalogs, pools and phases by this factor (the smoke test uses 0.02; numbers at scale < 1 are not comparable)")
		compare  = flag.Bool("compare", false, "compare two result files (arguments: A.json B.json) against the bounds in -spec")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition: the workloads, the metrics with their units and bounds")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two result files")
		}
		os.Exit(runCompare(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1)))
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fatalf("%v", err)
	}
	if *workload != "" && !spec.hasWorkload(*workload) {
		fatalf("unknown workload %q (%s declares %v)", *workload, *specPath, spec.workloadNames())
	}
	if *seconds <= 0 || *scale <= 0 {
		fatalf("-seconds and -scale must be positive")
	}

	cfg := &config{spec: spec, seed: *seed, seconds: *seconds, scale: *scale, trace: *trace != 0, outDir: *out, clients: numClients(), log: os.Stderr}
	runtime.GOMAXPROCS(cfg.clients)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	meta := collectMeta(cfg)
	if meta.LoadAvg > float64(meta.NumCPU) {
		cfg.logf("warning: load average %.2f exceeds the %d CPUs; timings will be noisy", meta.LoadAvg, meta.NumCPU)
	}

	names := spec.workloadNames()
	if *workload != "" {
		names = []string{*workload}
	}
	file := resultFile{Meta: meta, Workloads: make(map[string]*workloadResult)}
	for _, name := range names {
		cfg.logf("running %s (seed %d, %.0f s, trace %v)", name, cfg.seed, cfg.seconds, cfg.trace)
		res, err := runWorkload(cfg, name)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		res.print(os.Stdout)
		file.Workloads[name] = res
	}
	os.RemoveAll(filepath.Join(cfg.outDir, "tmp"))

	if *workload == "" {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("results_seed%d.json", cfg.seed))
		if err := writeJSONFile(path, file); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("results written to %s\n", path)
		return
	}
	// One workload: the driver's contract, one JSON object as the last line.
	fmt.Println(driverLine(file.Workloads[*workload], cfg.trace))
}

// numClients is the number of closed-loop clients, of bulk workers and
// GOMAXPROCS: load and program share one process.
func numClients() int { return min(runtime.NumCPU(), 4) }

func runWorkload(cfg *config, name string) (*workloadResult, error) {
	switch name {
	case wlBatchOffline:
		return runOffline(cfg)
	case wlServeFlat, wlServeSkew, wlServeMixed:
		return runServe(cfg, name)
	}
	return nil, fmt.Errorf("BENCHMARK.json names a workload this program does not implement")
}

// driverLine renders a result the way the benchmark contract asks: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one.
func driverLine(res *workloadResult, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	src := res.EndToEnd
	if traced {
		src = res.PerLayer
	}
	for name, m := range src {
		metrics[name] = value{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	return string(line)
}

func writeJSONFile(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}
