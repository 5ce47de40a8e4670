package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricValue is one measured metric. Rounds holds the per-round (or
// per-repetition) values behind Value, which -compare uses to tell a
// difference from noise; Samples is the number of observations behind a
// percentile or median.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Rounds  []float64 `json:"rounds,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

// workloadResult is everything one run of one workload measured.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailShare float64                `json:"fail_share"`
	Notes     []string               `json:"notes,omitempty"`
	Errors    []string               `json:"errors,omitempty"`

	spec *benchSpec // the units, and the order metrics print in
}

func newWorkloadResult(name string, spec *benchSpec) *workloadResult {
	return &workloadResult{
		spec:     spec,
		Workload: name,
		EndToEnd: make(map[string]metricValue),
		PerLayer: make(map[string]metricValue),
	}
}

// e2e records an end-to-end metric as the median of its rounds.
func (r *workloadResult) e2e(name string, rounds []float64, samples int) {
	r.EndToEnd[name] = metricValue{Value: median(rounds), Unit: r.spec.unit(name), Rounds: rounds, Samples: samples}
}

func (r *workloadResult) layer(name string, value float64) {
	r.PerLayer[name] = metricValue{Value: value, Unit: r.spec.unit(name)}
}

// layerSampled records a per-layer percentile with its sample count.
func (r *workloadResult) layerSampled(name string, value float64, samples int) {
	r.PerLayer[name] = metricValue{Value: value, Unit: r.spec.unit(name), Samples: samples}
}

// tails records the tail percentiles of ascending latencies in ms and says
// which is the highest the sample supports.
func (r *workloadResult) tails(ms []float64) {
	r.layerSampled(mP95, percentile(ms, 0.95), len(ms))
	r.layerSampled(mP99, percentile(ms, 0.99), len(ms))
	r.notef("highest percentile with ten samples beyond it: p%g (n=%d)", 100*highestSupported(len(ms)), len(ms))
}

func (r *workloadResult) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *workloadResult) fail(n int, errs []error) {
	r.Failed += n
	for _, err := range errs {
		if len(r.Errors) < 2*maxReportedErrs {
			r.Errors = append(r.Errors, err.Error())
		}
	}
}

// finish records the failure share and, for a traced run, fills in the
// per-layer metrics the workload did not set: a layer it does not exercise
// reports 0. An untraced run keeps only the few per-layer metrics its load
// phases yield anyway (tails, update latency).
func (r *workloadResult) finish(traced bool) {
	r.FailShare = ratio(float64(r.Failed), float64(r.Attempted))
	r.layer(mFailShare, r.FailShare)
	if !traced {
		return
	}
	for _, d := range r.spec.PerLayer {
		if _, ok := r.PerLayer[d.Name]; !ok {
			r.PerLayer[d.Name] = metricValue{Unit: d.Unit}
		}
	}
}

// print writes every metric by name with its unit.
func (r *workloadResult) print(w io.Writer) {
	for _, d := range r.spec.EndToEnd {
		m, ok := r.EndToEnd[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-14s %-34s %14.4f %-6s", r.Workload, d.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		if len(m.Rounds) > 1 {
			fmt.Fprintf(w, " rounds=%d spread=%.1f%% %.4g", len(m.Rounds), 100*spread(m.Rounds), m.Rounds)
		}
		fmt.Fprintln(w)
	}
	for _, d := range r.spec.PerLayer {
		m, ok := r.PerLayer[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-14s %-34s %14.4f %-6s", r.Workload, d.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s failed=%d attempted=%d\n", r.Workload, r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%-14s note: %s\n", r.Workload, n)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%-14s ERROR: %s\n", r.Workload, e)
	}
}

// runMeta describes the run a result file came from.
type runMeta struct {
	GitCommit  string  `json:"git_commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	LoadAvg    float64 `json:"load_average_at_start"`
	Started    string  `json:"started"`
}

func collectMeta(cfg *config) runMeta {
	m := runMeta{
		GitCommit:  "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Scale:      cfg.scale,
		LoadAvg:    loadAverage(),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitCommit = strings.TrimSpace(string(out))
	}
	return m
}

// loadAverage returns the 1-minute load average, or -1 where /proc does not
// offer it.
func loadAverage() float64 {
	buf, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(buf))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Meta      runMeta                    `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}
