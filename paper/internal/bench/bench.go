// Package bench regenerates the paper's evaluation (§6): every figure
// (Figs. 5, 6a, 6b, 7a–f) and table (Tables 2–6), plus the caching ablation
// of §6.2 and a tuning ablation for §4.4. Dataset sizes are the scaled-down
// profiles of internal/data; Above-θ thresholds are calibrated to absolute
// result sizes ("recall levels") exactly as in §6.1.
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"lemp/internal/data"
	"lemp/internal/matrix"
	"lemp/internal/topk"
	"lemp/internal/vecmath"
)

// RecallLevels are the Above-θ result sizes used by the harness. The paper
// uses 10³…10⁷ out of ~10¹¹ product entries; our scaled matrices have ~10⁷
// entries, so the ladder shifts down one decade.
var RecallLevels = []int{100, 1000, 10000, 100000, 1000000}

// KValues are the Row-Top-k values of the paper (§6.1).
var KValues = []int{1, 5, 10, 50}

// Config controls a harness run.
type Config struct {
	Scale   float64   // dataset size multiplier (default 1)
	Quick   bool      // reduced levels/k and skip the slowest baselines
	Out     io.Writer // destination for the result tables
	Verbose bool      // progress logging to Out
	// JSONDir, when non-empty, receives one PAPER_<experiment>.json
	// trajectory file per experiment run, holding its measurements in
	// machine-readable form for archiving across commits.
	JSONDir string
}

// Runner generates datasets on demand, caches them and their calibrated
// thresholds, and runs experiments.
type Runner struct {
	cfg  Config
	sets map[string]*dataset
	// grids memoizes measurement grids shared between a figure and its
	// table (the paper's Fig. 7 and Tables 5–6 show the same runs).
	grids map[string][]Measurement
	// collect accumulates every measurement printed this run, in print
	// order, for the JSON trajectory writer.
	collect []Measurement
}

// NewRunner returns a harness with the given configuration.
func NewRunner(cfg Config) *Runner {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	return &Runner{cfg: cfg, sets: make(map[string]*dataset), grids: make(map[string][]Measurement)}
}

// dataset bundles a generated profile with its calibrated thresholds.
type dataset struct {
	profile data.Profile
	q, p    *matrix.Matrix
	// thetas[level] is the value of the level-th largest entry of QᵀP,
	// so Above-θ with thetas[level] returns ≥ level entries.
	thetas map[int]float64
	// naiveTime is the wall-clock of the full-product pass used for
	// calibration — by construction also the Naive baseline's runtime.
	naiveTime time.Duration
}

// levels returns the recall ladder, shortened in quick mode.
func (r *Runner) levels() []int {
	if r.cfg.Quick {
		return []int{1000, 100000}
	}
	return RecallLevels
}

// ks returns the Row-Top-k ladder, shortened in quick mode.
func (r *Runner) ks() []int {
	if r.cfg.Quick {
		return []int{1, 10}
	}
	return KValues
}

// levelsFor returns the recall levels whose calibrated θ is usable for the
// dataset (positive entries exist at that depth).
func (r *Runner) levelsFor(ds *dataset) []int {
	var out []int
	for _, l := range r.levels() {
		if _, ok := ds.thetas[l]; ok {
			out = append(out, l)
		}
	}
	return out
}

// get generates (or returns the cached) dataset for a profile name such as
// "IE-NMF" or "IE-SVDT".
func (r *Runner) get(name string) *dataset {
	if ds, ok := r.sets[name]; ok {
		return ds
	}
	profile, err := data.ByName(name)
	if err != nil {
		panic(err)
	}
	if r.cfg.Scale != 1 {
		profile = profile.Scale(r.cfg.Scale)
	}
	r.logf("generating %s (m=%d n=%d r=%d)...", profile.Name, profile.M, profile.N, profile.R)
	q, p := profile.Generate()
	ds := &dataset{profile: profile, q: q, p: p}
	r.calibrate(ds)
	r.sets[name] = ds
	return ds
}

// calibrate computes, in one full-product pass, the θ for every recall
// level (the level-th largest product value). The pass is timed and reused
// as the Naive baseline measurement.
func (r *Runner) calibrate(ds *dataset) {
	maxLevel := 0
	for _, l := range r.levels() {
		if l > maxLevel {
			maxLevel = l
		}
	}
	total := ds.q.N() * ds.p.N()
	if maxLevel > total {
		maxLevel = total
	}
	r.logf("calibrating thresholds for %s (full product, %d entries)...", ds.profile.Name, total)
	start := time.Now()
	heap := topk.New(maxLevel)
	for i := 0; i < ds.q.N(); i++ {
		qi := ds.q.Vec(i)
		for j := 0; j < ds.p.N(); j++ {
			heap.Push(j, vecmath.Dot(qi, ds.p.Vec(j)))
		}
	}
	ds.naiveTime = time.Since(start)
	items := heap.Items() // sorted by decreasing value
	ds.thetas = make(map[int]float64, len(r.levels()))
	for _, l := range r.levels() {
		idx := l - 1
		if idx >= len(items) {
			idx = len(items) - 1
		}
		if idx < 0 {
			continue
		}
		// Center θ in the gap below the level-th value so that
		// last-ulp differences between the algorithms' inner-product
		// evaluation orders cannot move boundary entries across θ.
		v := items[idx].Value
		if idx+1 < len(items) {
			v = (v + items[idx+1].Value) / 2
		}
		if v > 0 {
			ds.thetas[l] = v
		} else {
			// The Above-θ problem requires θ > 0 (§2); drop levels
			// that reach into the non-positive entries at this
			// scale.
			r.logf("  level %d unusable at this scale (θ=%g ≤ 0)", l, v)
		}
	}
	r.logf("  naive pass: %v; θ@%v", ds.naiveTime.Round(time.Millisecond), ds.thetas)
}

// Measurement is one table cell: a (dataset, problem, method) timing with
// the paper's auxiliary columns.
type Measurement struct {
	Dataset    string
	Problem    string // "above@<level>" or "top<k>"
	Method     string
	Total      time.Duration // prep + tuning + retrieval (the paper's metric)
	Prep       time.Duration
	CandPerQ   float64
	Results    int64
	NumBuckets int // LEMP only
	Skipped    bool
	// Recall is an approximate method's recall against the exact rows of
	// the same cell (recall); nil for exact methods.
	Recall *float64
}

func (r *Runner) logf(format string, args ...any) {
	if r.cfg.Verbose && r.cfg.Out != nil {
		fmt.Fprintf(r.cfg.Out, "# "+format+"\n", args...)
	}
}

// sortMeasurements orders rows for stable table output.
func sortMeasurements(ms []Measurement) {
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].Dataset != ms[j].Dataset {
			return ms[i].Dataset < ms[j].Dataset
		}
		if ms[i].Problem != ms[j].Problem {
			return ms[i].Problem < ms[j].Problem
		}
		return ms[i].Method < ms[j].Method
	})
}
