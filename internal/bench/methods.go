package bench

import (
	"context"
	"fmt"
	"time"

	"lemp/internal/core"
	"lemp/internal/covertree"
	"lemp/internal/naive"
	"lemp/internal/retrieval"
	"lemp/internal/ta"
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

// --- Standalone TA -------------------------------------------------------

func (r *Runner) taAbove(ds *dataset, level int) Measurement {
	start := time.Now()
	ix := ta.NewIndex(ds.p)
	var n int64
	st := ix.AboveTheta(ds.q, ds.thetas[level], discard(&n))
	return Measurement{
		Dataset: ds.profile.Name, Problem: problemAbove(level), Method: "TA",
		Total: time.Since(start), Prep: st.PrepTime,
		CandPerQ: perQuery(st.Candidates, st.Queries), Results: st.Results,
	}
}

func (r *Runner) taTopK(ds *dataset, k int) Measurement {
	start := time.Now()
	ix := ta.NewIndex(ds.p)
	_, st := ix.RowTopK(ds.q, k)
	return Measurement{
		Dataset: ds.profile.Name, Problem: problemTopK(k), Method: "TA",
		Total: time.Since(start), Prep: st.PrepTime,
		CandPerQ: perQuery(st.Candidates, st.Queries), Results: st.Results,
	}
}

// --- Single cover tree ---------------------------------------------------

func (r *Runner) treeAbove(ds *dataset, level int) Measurement {
	start := time.Now()
	tree := covertree.Build(ds.p, covertree.DefaultBase)
	var n int64
	st := tree.AboveTheta(ds.q, ds.thetas[level], discard(&n))
	return Measurement{
		Dataset: ds.profile.Name, Problem: problemAbove(level), Method: "Tree",
		Total: time.Since(start), Prep: st.PrepTime,
		CandPerQ: perQuery(st.Candidates, st.Queries), Results: st.Results,
	}
}

func (r *Runner) treeTopK(ds *dataset, k int) Measurement {
	start := time.Now()
	tree := covertree.Build(ds.p, covertree.DefaultBase)
	_, st := tree.RowTopK(ds.q, k)
	return Measurement{
		Dataset: ds.profile.Name, Problem: problemTopK(k), Method: "Tree",
		Total: time.Since(start), Prep: st.PrepTime,
		CandPerQ: perQuery(st.Candidates, st.Queries), Results: st.Results,
	}
}

// --- Dual cover tree -----------------------------------------------------

func (r *Runner) dtreeAbove(ds *dataset, level int) Measurement {
	start := time.Now()
	dual := covertree.NewDual(ds.q, ds.p, covertree.DefaultBase)
	var n int64
	st := dual.AboveTheta(ds.thetas[level], discard(&n))
	return Measurement{
		Dataset: ds.profile.Name, Problem: problemAbove(level), Method: "D-Tree",
		Total: time.Since(start), Prep: st.PrepTime,
		CandPerQ: perQuery(st.Candidates, st.Queries), Results: st.Results,
	}
}

func (r *Runner) dtreeTopK(ds *dataset, k int) Measurement {
	start := time.Now()
	dual := covertree.NewDual(ds.q, ds.p, covertree.DefaultBase)
	_, st := dual.RowTopK(k)
	return Measurement{
		Dataset: ds.profile.Name, Problem: problemTopK(k), Method: "D-Tree",
		Total: time.Since(start), Prep: st.PrepTime,
		CandPerQ: perQuery(st.Candidates, st.Queries), Results: st.Results,
	}
}

// --- LEMP ----------------------------------------------------------------

func (r *Runner) lempAbove(ds *dataset, level int, alg core.Algorithm, opts core.Options) Measurement {
	start := time.Now()
	ix, err := core.NewIndex(ds.p, opts)
	if err != nil {
		panic(err)
	}
	var n int64
	// The algorithm is a per-call execution policy on the shared options,
	// exercising the same RunOptions path the serving layer uses.
	_, st, err := ix.Retrieve(context.Background(), ds.q, core.Problem{Theta: ds.thetas[level]}, discard(&n), core.RunOptions{Algorithm: &alg})
	if err != nil {
		panic(err)
	}
	return Measurement{
		Dataset: ds.profile.Name, Problem: problemAbove(level), Method: "LEMP-" + alg.String(),
		Total: time.Since(start), Prep: st.PrepTime + st.TuneTime,
		CandPerQ: st.CandidatesPerQuery(), Results: st.Results, NumBuckets: st.Buckets,
	}
}

func (r *Runner) lempTopK(ds *dataset, k int, alg core.Algorithm, opts core.Options) Measurement {
	start := time.Now()
	ix, err := core.NewIndex(ds.p, opts)
	if err != nil {
		panic(err)
	}
	_, st, err := ix.Retrieve(context.Background(), ds.q, core.Problem{K: k}, nil, core.RunOptions{Algorithm: &alg})
	if err != nil {
		panic(err)
	}
	return Measurement{
		Dataset: ds.profile.Name, Problem: problemTopK(k), Method: "LEMP-" + alg.String(),
		Total: time.Since(start), Prep: st.PrepTime + st.TuneTime,
		CandPerQ: st.CandidatesPerQuery(), Results: st.Results, NumBuckets: st.Buckets,
	}
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
