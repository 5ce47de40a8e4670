package bench

import (
	"context"
	"fmt"
	"time"

	"lemp/internal/core"
	"lemp/internal/naive"
	"lemp/internal/retrieval"
	"lemp/paper/internal/covertree"
	"lemp/paper/internal/ta"
)

// Method runners. Each measures one (dataset, problem, method) cell:
// total wall-clock including index construction and tuning — the metric of
// Figs. 5–7 and Tables 3–6. Results are discarded through a counting sink.

func discard(count *int64) retrieval.Sink {
	return func(retrieval.Entry) { *count++ }
}

// --- Naive ---------------------------------------------------------------

func (r *Runner) naiveAbove(ds *dataset, level int) Measurement {
	// The calibration pass already performed exactly this computation;
	// its timing is reused rather than burning another full product.
	return Measurement{
		Dataset: ds.profile.Name, Problem: problemAbove(level), Method: "Naive",
		Total: ds.naiveTime, CandPerQ: float64(ds.p.N()), Results: int64(level),
	}
}

func (r *Runner) naiveTopK(ds *dataset, k int) Measurement {
	start := time.Now()
	_, st := naive.RowTopK(ds.q, ds.p, k)
	return Measurement{
		Dataset: ds.profile.Name, Problem: problemTopK(k), Method: "Naive",
		Total: time.Since(start), CandPerQ: float64(ds.p.N()), Results: st.Results,
	}
}

// --- Standalone baselines: TA, single and dual cover tree ----------------

// baseStats is what the standalone baselines report; ta.Stats and
// covertree.Stats convert to it.
type baseStats struct {
	Queries    int
	Candidates int64
	Results    int64
	PrepTime   time.Duration
	Time       time.Duration
}

// standalone measures one cell of a standalone baseline: run builds its
// index and answers the cell.
func standalone(ds *dataset, problem, method string, run func() baseStats) Measurement {
	start := time.Now()
	st := run()
	return Measurement{
		Dataset: ds.profile.Name, Problem: problem, Method: method,
		Total: time.Since(start), Prep: st.PrepTime,
		CandPerQ: perQuery(st.Candidates, st.Queries), Results: st.Results,
	}
}

func (r *Runner) taAbove(ds *dataset, level int) Measurement {
	return standalone(ds, problemAbove(level), "TA", func() baseStats {
		var n int64
		return baseStats(ta.NewIndex(ds.p).AboveTheta(ds.q, ds.thetas[level], discard(&n)))
	})
}

func (r *Runner) taTopK(ds *dataset, k int) Measurement {
	return standalone(ds, problemTopK(k), "TA", func() baseStats {
		_, st := ta.NewIndex(ds.p).RowTopK(ds.q, k)
		return baseStats(st)
	})
}

func (r *Runner) treeAbove(ds *dataset, level int) Measurement {
	return standalone(ds, problemAbove(level), "Tree", func() baseStats {
		var n int64
		return baseStats(covertree.Build(ds.p, covertree.DefaultBase).AboveTheta(ds.q, ds.thetas[level], discard(&n)))
	})
}

func (r *Runner) treeTopK(ds *dataset, k int) Measurement {
	return standalone(ds, problemTopK(k), "Tree", func() baseStats {
		_, st := covertree.Build(ds.p, covertree.DefaultBase).RowTopK(ds.q, k)
		return baseStats(st)
	})
}

func (r *Runner) dtreeAbove(ds *dataset, level int) Measurement {
	return standalone(ds, problemAbove(level), "D-Tree", func() baseStats {
		var n int64
		return baseStats(covertree.NewDual(ds.q, ds.p, covertree.DefaultBase).AboveTheta(ds.thetas[level], discard(&n)))
	})
}

func (r *Runner) dtreeTopK(ds *dataset, k int) Measurement {
	return standalone(ds, problemTopK(k), "D-Tree", func() baseStats {
		_, st := covertree.NewDual(ds.q, ds.p, covertree.DefaultBase).RowTopK(k)
		return baseStats(st)
	})
}

// --- LEMP ----------------------------------------------------------------

func (r *Runner) lempAbove(ds *dataset, level int, v variant, opts core.Options) Measurement {
	var n int64
	m, _ := r.lemp(ds, core.Problem{Theta: ds.thetas[level]}, problemAbove(level), discard(&n), v, opts)
	return m
}

func (r *Runner) lempTopK(ds *dataset, k int, v variant, opts core.Options) Measurement {
	m, _ := r.lemp(ds, core.Problem{K: k}, problemTopK(k), nil, v, opts)
	return m
}

// lemp measures variant v on one problem and hands back its Row-Top-k rows
// (nil for Above-θ). The variant is a per-call execution policy on the
// shared options, exercising the same RunOptions path the serving layer
// uses.
func (r *Runner) lemp(ds *dataset, prob core.Problem, label string, sink retrieval.Sink, v variant, opts core.Options) (Measurement, retrieval.TopK) {
	start := time.Now()
	ix, err := core.NewIndex(ds.p, opts)
	if err != nil {
		panic(err)
	}
	rows, st, err := ix.Retrieve(context.Background(), ds.q, prob, sink, v.runOptions(ix, ds.q, prob))
	if err != nil {
		panic(err)
	}
	return Measurement{
		Dataset: ds.profile.Name, Problem: label, Method: "LEMP-" + v.name,
		Total: time.Since(start), Prep: ix.PrepTime() + st.TuneTime,
		CandPerQ: st.CandidatesPerQuery(), Results: st.Results, NumBuckets: ix.NumBuckets(),
	}, rows
}

func problemAbove(level int) string { return fmt.Sprintf("above@%s", siCount(level)) }
func problemTopK(k int) string      { return fmt.Sprintf("top%d", k) }

func siCount(n int) string {
	switch {
	case n >= 1000000 && n%1000000 == 0:
		return fmt.Sprintf("%dM", n/1000000)
	case n >= 1000 && n%1000 == 0:
		return fmt.Sprintf("%dK", n/1000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

func perQuery(cands int64, queries int) float64 {
	if queries == 0 {
		return 0
	}
	return float64(cands) / float64(queries)
}
