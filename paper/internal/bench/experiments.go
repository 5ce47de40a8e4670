package bench

import (
	"context"
	"fmt"
	"time"

	"lemp/internal/core"
	"lemp/internal/retrieval"
)

// Experiment ids accepted by Run: the paper's figures and tables of §6,
// then its caching study (§6.2) and a tuning ablation for §4.4.
var ExperimentIDs = []string{
	"fig5", "fig6a", "fig6b", "fig7ab", "fig7cf",
	"table2", "table3", "table4", "table5", "table6",
	"cache", "tune",
}

// Run executes one experiment by id ("all" runs every experiment) and
// prints its table(s) to cfg.Out. With Config.JSONDir set, each
// experiment's measurements are also written to
// <JSONDir>/PAPER_<id>.json so CI can archive trajectories across
// commits.
func (r *Runner) Run(id string) error {
	if id == "all" {
		for _, e := range ExperimentIDs {
			if err := r.Run(e); err != nil {
				return err
			}
		}
		return nil
	}
	before := len(r.collect)
	if err := r.run1(id); err != nil {
		return err
	}
	if r.cfg.JSONDir != "" {
		return r.writeJSON(id, r.collect[before:])
	}
	return nil
}

func (r *Runner) run1(id string) error {
	switch id {
	case "fig5":
		return r.fig5()
	case "fig6a":
		return r.fig6a()
	case "fig6b":
		return r.fig6b()
	case "fig7ab":
		return r.fig7ab()
	case "fig7cf":
		return r.fig7cf()
	case "table2":
		return r.table2()
	case "table3":
		return r.table3()
	case "table4":
		return r.table4()
	case "table5":
		return r.table5()
	case "table6":
		return r.table6()
	case "cache":
		return r.cacheAblation()
	case "tune":
		return r.tuneAblation()
	default:
		return fmt.Errorf("bench: unknown experiment %q (have %v)", id, ExperimentIDs)
	}
}

// fullMethodsAbove measures every standalone method plus LEMP-LI for one
// Above-θ cell.
func (r *Runner) fullMethodsAbove(ds *dataset, level int) []Measurement {
	if _, ok := ds.thetas[level]; !ok {
		r.logf("skipping %s above@%d: no positive θ at this scale", ds.profile.Name, level)
		return nil
	}
	ms := []Measurement{r.naiveAbove(ds, level)}
	if !r.cfg.Quick {
		ms = append(ms, r.dtreeAbove(ds, level))
	}
	ms = append(ms,
		r.treeAbove(ds, level),
		r.taAbove(ds, level),
		r.lempAbove(ds, level, bucketAlg(core.AlgLI), core.Options{}),
	)
	return ms
}

func (r *Runner) fullMethodsTopK(ds *dataset, k int) []Measurement {
	ms := []Measurement{r.naiveTopK(ds, k)}
	if !r.cfg.Quick {
		ms = append(ms, r.dtreeTopK(ds, k))
	}
	ms = append(ms,
		r.treeTopK(ds, k),
		r.taTopK(ds, k),
		r.lempTopK(ds, k, bucketAlg(core.AlgLI), core.Options{}),
	)
	return ms
}

// Figure 5: Above-θ @1K on the IE datasets, all methods.
func (r *Runner) fig5() error {
	r.header("Figure 5: Above-θ @1K total wall-clock times (IE datasets)")
	var ms []Measurement
	for _, name := range []string{"IE-NMF", "IE-SVD"} {
		ms = append(ms, r.fullMethodsAbove(r.get(name), 1000)...)
	}
	r.printComparison(ms, "LEMP-LI")
	return nil
}

// Figure 6a: Above-θ @1M on the IE datasets, all methods.
func (r *Runner) fig6a() error {
	r.header("Figure 6a: Above-θ @1M total wall-clock times (IE datasets)")
	level := 1000000
	if r.cfg.Quick {
		level = 100000
	}
	var ms []Measurement
	for _, name := range []string{"IE-NMF", "IE-SVD"} {
		ms = append(ms, r.fullMethodsAbove(r.get(name), level)...)
	}
	r.printComparison(ms, "LEMP-LI")
	return nil
}

// Figure 6b: Row-Top-1 on the transposed IE datasets, Netflix and KDD.
func (r *Runner) fig6b() error {
	r.header("Figure 6b: Row-Top-1 total wall-clock times")
	var ms []Measurement
	for _, name := range []string{"IE-NMFT", "IE-SVDT", "Netflix", "KDD"} {
		ms = append(ms, r.fullMethodsTopK(r.get(name), 1)...)
	}
	r.printComparison(ms, "LEMP-LI")
	return nil
}

// bucketAlgorithms lists the LEMP variants of §6.3 (Fig. 7, Tables 5–6).
func (r *Runner) bucketAlgorithms() []variant {
	if r.cfg.Quick {
		return []variant{bucketAlg(core.AlgL), bucketAlg(core.AlgLI), bucketAlg(core.AlgI), baselines[0]}
	}
	var vs []variant
	for _, a := range core.Algorithms() {
		vs = append(vs, bucketAlg(a))
	}
	return append(vs, baselines...)
}

// bucketGridAbove measures (once) the Above-θ bucket-algorithm grid shared
// by Fig. 7a,b and Table 5.
func (r *Runner) bucketGridAbove() []Measurement {
	if ms, ok := r.grids["above"]; ok {
		return ms
	}
	var ms []Measurement
	for _, name := range []string{"IE-SVD", "IE-NMF"} {
		ds := r.get(name)
		for _, level := range r.levelsFor(ds) {
			for _, v := range r.bucketAlgorithms() {
				ms = append(ms, r.lempAbove(ds, level, v, core.Options{}))
			}
		}
	}
	r.grids["above"] = ms
	return ms
}

// bucketGridTopK measures (once) the Row-Top-k bucket-algorithm grid shared
// by Fig. 7c–f and Table 6. The one approximate variant, LEMP-BLSH, carries
// its recall against the exact LEMP-LI rows of the same cell.
func (r *Runner) bucketGridTopK() []Measurement {
	if ms, ok := r.grids["topk"]; ok {
		return ms
	}
	var ms []Measurement
	for _, name := range []string{"IE-SVDT", "IE-NMFT", "KDD", "Netflix"} {
		ds := r.get(name)
		for _, k := range r.ks() {
			var exact retrieval.TopK
			for _, v := range r.bucketAlgorithms() {
				m, rows := r.lemp(ds, core.Problem{K: k}, problemTopK(k), nil, v, core.Options{})
				switch v.name {
				case core.AlgLI.String():
					exact = rows
				case "BLSH":
					rec := recall(exact, rows)
					m.Recall = &rec
				}
				ms = append(ms, m)
			}
		}
	}
	r.grids["topk"] = ms
	return ms
}

// Figure 7a,b: bucket algorithms vs. result size (Above-θ, IE datasets).
func (r *Runner) fig7ab() error {
	r.header("Figure 7a,b: LEMP bucket algorithms, Above-θ (IE-SVD, IE-NMF)")
	r.printTable(r.bucketGridAbove())
	return nil
}

// Figure 7c–f: bucket algorithms vs. k (Row-Top-k, four datasets).
func (r *Runner) fig7cf() error {
	r.header("Figure 7c-f: LEMP bucket algorithms, Row-Top-k")
	r.printTable(r.bucketGridTopK())
	return nil
}

// Table 2: maximum preprocessing times (indexing + tuning).
func (r *Runner) table2() error {
	r.header("Table 2: preprocessing times (indexing + tuning), seconds")
	datasets := []string{"IE-NMF", "IE-SVD", "IE-NMFT", "IE-SVDT", "Netflix", "KDD"}
	fmt.Fprintf(r.cfg.Out, "%-10s %12s %12s %12s %12s\n", "Dataset", "LEMP", "TA", "Tree", "D-Tree")
	for _, name := range datasets {
		ds := r.get(name)
		lemp := r.lempPrepTime(ds)
		taP := r.taPrepTime(ds)
		treeP := r.treePrepTime(ds)
		var dtreeP time.Duration
		if !r.cfg.Quick {
			dtreeP = r.dtreePrepTime(ds)
		}
		fmt.Fprintf(r.cfg.Out, "%-10s %12s %12s %12s %12s\n",
			name, fmtDur(lemp), fmtDur(taP), fmtDur(treeP), fmtDur(dtreeP))
	}
	fmt.Fprintln(r.cfg.Out)
	return nil
}

// lempPrepTime measures LEMP's preprocessing the way the paper's Table 2
// does: bucketization plus tuning (which lazily builds the sorted-list
// indexes of every bucket the tuning sample reaches — buckets it never
// reaches would also never be indexed by a real run).
func (r *Runner) lempPrepTime(ds *dataset) time.Duration {
	ix, err := core.NewIndex(ds.p, core.Options{})
	if err != nil {
		panic(err)
	}
	// Tuning requires a retrieval call; use Row-Top-1 on a small prefix
	// of the queries so retrieval is negligible but tuning is measured.
	sample := ds.q.Head(min(ds.q.N(), 64))
	_, st, err := ix.Retrieve(context.Background(), sample, core.Problem{K: 1}, nil, core.RunOptions{})
	if err != nil {
		panic(err)
	}
	return ix.PrepTime() + st.TuneTime
}

func (r *Runner) taPrepTime(ds *dataset) time.Duration {
	return timeOf(func() { r.discardTA(ds) })
}

func (r *Runner) discardTA(ds *dataset) { benchSink = taIndexEntries(ds) }

func (r *Runner) treePrepTime(ds *dataset) time.Duration {
	var d time.Duration
	d = timeOf(func() { benchSink = treeNodes(ds) })
	return d
}

func (r *Runner) dtreePrepTime(ds *dataset) time.Duration {
	return timeOf(func() { benchSink = dualNodes(ds) })
}

// Table 3: LEMP vs. the full methods for Above-θ on the IE datasets.
func (r *Runner) table3() error {
	r.header("Table 3: Above-θ comparison (time; avg candidates/query)")
	var ms []Measurement
	for _, name := range []string{"IE-SVD", "IE-NMF"} {
		ds := r.get(name)
		for _, level := range r.levelsFor(ds) {
			ms = append(ms, r.fullMethodsAbove(ds, level)...)
		}
	}
	r.printTable(ms)
	return nil
}

// Table 4: LEMP vs. the full methods for Row-Top-k.
func (r *Runner) table4() error {
	r.header("Table 4: Row-Top-k comparison (time; avg candidates/query)")
	var ms []Measurement
	for _, name := range []string{"IE-SVDT", "IE-NMFT", "Netflix", "KDD"} {
		ds := r.get(name)
		for _, k := range r.ks() {
			ms = append(ms, r.fullMethodsTopK(ds, k)...)
		}
	}
	r.printTable(ms)
	return nil
}

// Table 5: all bucket algorithms for Above-θ — the same runs as Fig. 7a,b
// (the paper's Table 5 tabulates the Fig. 7 experiments).
func (r *Runner) table5() error {
	r.header("Table 5: LEMP bucket algorithms, Above-θ (time; candidates/query)")
	r.printTable(r.bucketGridAbove())
	return nil
}

// Table 6: all bucket algorithms for Row-Top-k — the same runs as Fig. 7c–f.
func (r *Runner) table6() error {
	r.header("Table 6: LEMP bucket algorithms, Row-Top-k (time; candidates/query)")
	r.printTable(r.bucketGridTopK())
	return nil
}

// cacheAblation reproduces §6.2's caching-effects study: cache-aware vs.
// cache-oblivious bucketization on the low-skew KDD profile. The aware
// variant uses a 256 KiB per-bucket budget — a realistic per-core L2, and
// small enough to bind at this dataset scale the way the paper's default
// binds at 624K probe vectors (26 vs. 403 buckets there).
func (r *Runner) cacheAblation() error {
	r.header("§6.2 caching effects: cache-aware vs. cache-oblivious bucketization (KDD, Row-Top-10)")
	ds := r.get("KDD")
	aware := r.lempTopK(ds, 10, bucketAlg(core.AlgLI), core.Options{CacheBytes: 256 << 10})
	oblivious := r.lempTopK(ds, 10, bucketAlg(core.AlgLI), core.Options{CacheBytes: -1})
	fmt.Fprintf(r.cfg.Out, "%-16s %10s %10s\n", "Variant", "Buckets", "Total")
	fmt.Fprintf(r.cfg.Out, "%-16s %10d %10s\n", "cache-aware", aware.NumBuckets, fmtDur(aware.Total))
	fmt.Fprintf(r.cfg.Out, "%-16s %10d %10s\n", "cache-oblivious", oblivious.NumBuckets, fmtDur(oblivious.Total))
	fmt.Fprintf(r.cfg.Out, "speedup of cache-aware: %.2fx\n\n",
		float64(oblivious.Total)/float64(aware.Total))
	return nil
}

// tuneAblation compares tuned φ_b/t_b against fixed settings (§4.4).
func (r *Runner) tuneAblation() error {
	r.header("§4.4 ablation: tuned φ_b/t_b vs fixed φ (IE-SVDT, Row-Top-10; IE-SVD, Above-θ@10K)")
	dsT := r.get("IE-SVDT")
	ds := r.get("IE-SVD")
	var ms []Measurement
	tuned := r.lempTopK(dsT, 10, bucketAlg(core.AlgLI), core.Options{})
	tuned.Method = "LEMP-LI(tuned)"
	ms = append(ms, tuned)
	for _, phi := range []int{1, 2, 3, 5} {
		m := r.lempTopK(dsT, 10, bucketAlg(core.AlgI), core.Options{Phi: phi})
		m.Method = fmt.Sprintf("LEMP-I(φ=%d)", phi)
		ms = append(ms, m)
	}
	// Use the deepest calibrated level not exceeding @10K (at tiny
	// scales deeper levels have no positive θ).
	level := 0
	for _, l := range r.levelsFor(ds) {
		if l <= 10000 {
			level = l
		}
	}
	if level > 0 {
		tunedA := r.lempAbove(ds, level, bucketAlg(core.AlgLI), core.Options{})
		tunedA.Method = "LEMP-LI(tuned)"
		ms = append(ms, tunedA)
		for _, phi := range []int{1, 2, 3, 5} {
			m := r.lempAbove(ds, level, bucketAlg(core.AlgI), core.Options{Phi: phi})
			m.Method = fmt.Sprintf("LEMP-I(φ=%d)", phi)
			ms = append(ms, m)
		}
	}
	r.printTable(ms)
	return nil
}

func timeOf(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// benchSink defeats dead-code elimination of timed construction work.
var benchSink int
