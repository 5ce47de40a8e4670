package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"lemp/internal/core"
	"lemp/internal/matrix"
	"lemp/internal/naive"
	"lemp/internal/retrieval"
	"lemp/internal/vecmath"
)

// The quant experiment measures the int8 screening sidecar on LEMP's
// verification phase: candidates that survive bucket pruning are bounded in
// int8 (the full-width integer dot plus a conservative error bound) and only
// the survivors reach the exact f64 kernels. Its two arms are an index built
// with default options — which screens by itself, through lazy sidecars,
// exactly where the int8 kernels are assembly — and one built with
// Options.Quantize, which screens everywhere: about 1.0× apart on an AVX2
// host, and on the portable kernels the price of forcing the screen on.
// Screening never changes results — at every θ level the two arms must agree
// entry for entry and with internal/naive — so the interesting numbers are the
// screen rate and the verified-candidate throughput. High θ is the sweet spot:
// most candidates fall clearly short of the threshold, and the int8 bound
// proves it at an eighth of the memory traffic.

// quantWorkload builds a clustered, moderately length-skewed catalog and a
// matching query set, with a power-law spectral profile across dimensions:
// coordinate f is damped by (f+1)^-0.6, the shape of SVD/NMF factor
// matrices (the paper's own datasets), whose dimensions come ordered by
// singular value. Deterministic (fixed seed): bench runs must be
// reproducible.
func quantWorkload(scale float64) (p, q *matrix.Matrix) {
	rng := rand.New(rand.NewSource(131))
	n := int(200000 * scale)
	if n < 2000 {
		n = 2000
	}
	m := int(64 * scale)
	if m < 16 {
		m = 16
	}
	// r matches the paper's rank-100 factorizations (the widest IE-SVD and
	// IE-NMF setting).
	const r, nCenters = 100, 6
	spectrum := make([]float64, r)
	for f := range spectrum {
		spectrum[f] = math.Pow(float64(f+1), -0.6)
	}
	centers := make([][]float64, nCenters)
	for c := range centers {
		v := make([]float64, r)
		for f := range v {
			v[f] = spectrum[f] * rng.NormFloat64()
		}
		vecmath.Normalize(v, v)
		centers[c] = v
	}
	p = matrix.New(r, n)
	for i := 0; i < n; i++ {
		v := p.Vec(i)
		c := centers[i%nCenters]
		for f := range v {
			v[f] = c[f] + 0.3*spectrum[f]*rng.NormFloat64()
		}
		norm := vecmath.Norm(v)
		vecmath.Scale(v, v, math.Exp(0.4*rng.NormFloat64())/norm)
	}
	q = matrix.New(r, m)
	for i := 0; i < m; i++ {
		v := q.Vec(i)
		c := centers[i%nCenters]
		for f := range v {
			v[f] = c[f] + 0.2*spectrum[f]*rng.NormFloat64()
		}
		norm := vecmath.Norm(v)
		vecmath.Scale(v, v, 1/norm)
	}
	return p, q
}

// quantThetas calibrates the θ sweep from the exact product distribution:
// the 0.95 quantile (a broad verification-heavy sweep) up to the 0.999
// quantile, the paper's high-θ regime, where nearly every candidate falls
// short and screening opportunity is largest. Beyond that the sweep stops:
// at the most extreme quantiles each pass returns a handful of entries and
// per-call fixed costs (bucket walk, query setup) dominate both sides, so
// the measurement stops saying anything about verification.
func quantThetas(p, q *matrix.Matrix) []float64 {
	products := allProducts(p, q)
	sort.Float64s(products)
	var thetas []float64
	for _, qq := range []float64{0.95, 0.99, 0.999} {
		if t := products[int(qq*float64(len(products)-1))]; t > 0 {
			thetas = append(thetas, t)
		}
	}
	return thetas
}

// allProducts returns every entry of QPᵀ, by brute force: the distribution
// θ levels are calibrated on.
func allProducts(p, q *matrix.Matrix) []float64 {
	products := make([]float64, 0, q.N()*p.N())
	for i := 0; i < q.N(); i++ {
		qi := q.Vec(i)
		for j := 0; j < p.N(); j++ {
			products = append(products, vecmath.Dot(qi, p.Vec(j)))
		}
	}
	return products
}

// quantRow is one θ level's measurements. The counts are the Quantize arm's:
// it screens every pair on every build.
type quantRow struct {
	theta      float64
	candidates int64         // pre-screen candidates (identical both runs)
	screened   int64         // candidates the sidecar discarded,
	survived   int64         // and those it passed on to the exact kernels
	screenRate float64       // screened / (screened + survived)
	plainTime  time.Duration // default-options Above-θ wall time
	quantTime  time.Duration // Options.Quantize Above-θ wall time
	results    int
}

// measureQuantAbove runs Above-θ at one θ on a default-options index and on
// an Options.Quantize one, cross-checks the result sets entry for entry and
// against internal/naive, and times both (after a warmup pass that pays tuning
// and lazy index construction) for as long as budget allows: a zero budget
// takes one timed pass of each, enough for the counts.
func measureQuantAbove(p, q *matrix.Matrix, theta float64, budget time.Duration) (quantRow, error) {
	row := quantRow{theta: theta}
	// AlgL makes the run verification-heavy: candidate generation is a
	// near-free length-prefix scan, so wall time is the verification phase
	// the screen targets. The generation-heavy algorithms amortize the same
	// per-candidate saving over their own scan costs (the differential
	// harness covers them all for correctness).
	plain, err := core.NewIndex(p.Clone(), core.Options{Parallelism: 1, Algorithm: core.AlgL})
	if err != nil {
		return row, err
	}
	quantized, err := core.NewIndex(p.Clone(), core.Options{Parallelism: 1, Algorithm: core.AlgL, Quantize: true})
	if err != nil {
		return row, err
	}
	pass := func(ix *core.Index, out *[]retrieval.Entry) (core.Stats, time.Duration, error) {
		*out = (*out)[:0]
		start := time.Now()
		_, st, err := ix.Retrieve(context.Background(), q, core.Problem{Theta: theta}, retrieval.Collect(out), core.RunOptions{})
		return st, time.Since(start), err
	}
	// Warmup both indexes (tuning, lazy construction), then alternate timed
	// passes between them until enough wall time accumulates to drown timer
	// noise — the high-θ rows finish one pass in well under a millisecond,
	// and interleaving keeps slow machine-load drift from landing entirely
	// on one side of the ratio. Reported time is the per-pass average.
	var plainOut, quantOut []retrieval.Entry
	if _, _, err := pass(plain, &plainOut); err != nil {
		return row, err
	}
	if _, _, err := pass(quantized, &quantOut); err != nil {
		return row, err
	}
	var plainStats, quantStats core.Stats
	var plainTotal, quantTotal time.Duration
	passes := 0
	for passes == 0 || (plainTotal+quantTotal < budget && passes < 512) {
		st, d, err := pass(plain, &plainOut)
		if err != nil {
			return row, err
		}
		plainStats, plainTotal = st, plainTotal+d
		st, d, err = pass(quantized, &quantOut)
		if err != nil {
			return row, err
		}
		quantStats, quantTotal = st, quantTotal+d
		passes++
	}
	plainTime := plainTotal / time.Duration(passes)
	quantTime := quantTotal / time.Duration(passes)
	retrieval.Sort(plainOut)
	retrieval.Sort(quantOut)
	if len(plainOut) != len(quantOut) {
		return row, fmt.Errorf("the arms' result sets differ: %d entries by default, %d under Quantize (θ=%v)",
			len(plainOut), len(quantOut), theta)
	}
	for i := range plainOut {
		if plainOut[i] != quantOut[i] {
			return row, fmt.Errorf("the arms differ at entry %d: default %+v, Quantize %+v (θ=%v)",
				i, plainOut[i], quantOut[i], theta)
		}
	}
	if err := checkAboveAgainstNaive(p, q, theta, quantOut); err != nil {
		return row, fmt.Errorf("θ=%v: %w", theta, err)
	}
	row.candidates = plainStats.Candidates
	row.plainTime = plainTime
	row.quantTime = quantTime
	row.results = len(plainOut)
	row.screened, row.survived = quantStats.QuantScreened, quantStats.QuantSurvived
	if total := row.screened + row.survived; total > 0 {
		row.screenRate = float64(row.screened) / float64(total)
	}
	return row, nil
}

// checkAboveAgainstNaive holds an Above-θ answer against the brute-force
// product: the same (query, probe) pairs with values equal to nine digits —
// LEMP multiplies a unit-direction dot by two lengths, naive takes the raw
// dot — where a pair whose value sits that close to θ may fall on either side.
func checkAboveAgainstNaive(p, q *matrix.Matrix, theta float64, got []retrieval.Entry) error {
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	type pair struct{ query, probe int }
	want := make(map[pair]float64)
	naive.AboveTheta(q, p, theta, func(e retrieval.Entry) { want[pair{e.Query, e.Probe}] = e.Value })
	for _, e := range got {
		key := pair{e.Query, e.Probe}
		v, ok := want[key]
		switch {
		case ok && near(v, e.Value):
			delete(want, key)
		case ok:
			return fmt.Errorf("entry %+v, naive value %v", e, v)
		case !near(e.Value, theta):
			return fmt.Errorf("entry %+v is not in the naive result", e)
		}
	}
	for key, v := range want {
		if !near(v, theta) {
			return fmt.Errorf("naive entry %+v (value %v) is missing", key, v)
		}
	}
	return nil
}

// quantScreening runs the experiment: a θ sweep over the two arms, reporting
// screen rate and verified-candidate throughput. Exact results are
// screening-invariant, so every row doubles as a cross-check.
func (r *Runner) quantScreening() error {
	r.header("Quantized screening: int8 candidate pruning before exact verification (θ sweep)")
	p, q := quantWorkload(r.cfg.Scale)
	thetas := quantThetas(p, q)
	if len(thetas) == 0 {
		r.logf("skipping quant: no positive θ at this scale")
		return nil
	}
	r.logf("catalog n=%d r=%d, %d queries", p.N(), p.R(), q.N())
	fmt.Fprintf(r.cfg.Out, "%-10s %12s %9s %12s %12s %9s %14s %9s\n",
		"Theta", "Candidates", "Screened", "Default", "Quantize", "Ratio", "Verify/s", "Results")
	for _, theta := range thetas {
		row, err := measureQuantAbove(p, q, theta, 2*time.Second)
		if err != nil {
			return fmt.Errorf("quant θ=%v: %w", theta, err)
		}
		speedup := math.Inf(1)
		if row.quantTime > 0 {
			speedup = float64(row.plainTime) / float64(row.quantTime)
		}
		throughput := 0.0
		if row.quantTime > 0 {
			throughput = float64(row.candidates) / row.quantTime.Seconds()
		}
		fmt.Fprintf(r.cfg.Out, "%-10.4f %12d %8.1f%% %12s %12s %8.2fx %14.3g %9d\n",
			row.theta, row.candidates, 100*row.screenRate,
			fmtDur(row.plainTime), fmtDur(row.quantTime), speedup, throughput, row.results)
	}
	fmt.Fprintln(r.cfg.Out)
	return nil
}
