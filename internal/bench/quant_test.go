// Package bench holds the system's performance guards: regression checks on
// the bulk engine's throughput and on the int8 screen's effectiveness, each
// cross-checked entry for entry, and the θ sweep that times the screen. They
// test the library only; the paper's evaluation harness lives in the paper/
// module.
package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"lemp/internal/core"
	"lemp/internal/data"
	"lemp/internal/matrix"
	"lemp/internal/naive"
	"lemp/internal/retrieval"
	"lemp/internal/vecmath"
)

// The int8 screening sidecar on LEMP's verification phase: candidates that
// survive bucket pruning are bounded in int8 (the full-width integer dot plus
// a conservative error bound) and only the survivors reach the exact f64
// kernels. Two arms: an index built with default options — which screens by
// itself, through lazy sidecars, exactly where the int8 kernels are assembly —
// and one built with Options.Quantize, which screens everywhere. Screening
// never changes results, so the guards below count what the screen discards
// and cross-check every entry; BenchmarkQuantScreenSweep times both arms.

// quantWorkload builds a clustered, moderately length-skewed catalog and a
// matching query set, with a power-law spectral profile across dimensions:
// coordinate f is damped by (f+1)^-0.6, the shape of SVD/NMF factor
// matrices (the paper's own datasets), whose dimensions come ordered by
// singular value. Deterministic (fixed seed).
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

// quantRow is one θ level's counts. The screen counts are the Quantize arm's:
// it screens every pair on every build.
type quantRow struct {
	theta      float64
	candidates int64   // pre-screen candidates (identical both arms)
	screened   int64   // candidates the sidecar discarded,
	survived   int64   // and those it passed on to the exact kernels
	screenRate float64 // screened / (screened + survived)
	results    int
}

// measureQuantAbove runs Above-θ at one θ on a default-options index and on
// an Options.Quantize one, each a warm-up pass (lazy sidecars) and a counted
// one, and cross-checks the result sets entry for entry and against
// internal/naive. Both indexes run LENGTH, so the candidate set does not
// depend on the wall-clock tuner.
func measureQuantAbove(p, q *matrix.Matrix, theta float64) (quantRow, error) {
	row := quantRow{theta: theta}
	var stats [2]core.Stats
	var outs [2][]retrieval.Entry
	for arm, quantize := range []bool{false, true} {
		ix, err := core.NewIndex(p.Clone(), core.Options{Parallelism: 1, Algorithm: core.AlgL, Quantize: quantize})
		if err != nil {
			return row, err
		}
		for range 2 {
			outs[arm] = outs[arm][:0]
			if _, stats[arm], err = ix.Retrieve(context.Background(), q, core.Problem{Theta: theta}, retrieval.Collect(&outs[arm]), core.RunOptions{}); err != nil {
				return row, err
			}
		}
		retrieval.Sort(outs[arm])
	}
	plainOut, quantOut := outs[0], outs[1]
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
	row.candidates = stats[0].Candidates
	row.results = len(plainOut)
	row.screened, row.survived = stats[1].QuantScreened, stats[1].QuantSurvived
	if total := row.screened + row.survived; total > 0 {
		row.screenRate = float64(row.screened) / float64(total)
	}
	return row, nil
}

// checkAboveAgainstNaive holds an Above-θ answer against the brute-force
// product: the same (query, probe) pairs with values equal to nine digits,
// where a pair whose value sits that close to θ may fall on either side.
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

// TestQuantScreenGuard pins the screen's effectiveness: at the highest
// calibrated θ of the seeded smoke workload, the int8 sidecar must screen
// out at least 40% of the verification candidates — without changing a
// single result entry (measureQuantAbove cross-checks every row against the
// default-options index, which screens by its own rule where the int8
// kernels are assembly, and against internal/naive). The workload is seeded,
// so this is a regression guard on screening effectiveness, not a flaky
// timing assertion.
func TestQuantScreenGuard(t *testing.T) {
	p, q := quantWorkload(0.1)
	thetas := quantThetas(p, q)
	if len(thetas) == 0 {
		t.Fatal("smoke workload calibrated no positive θ")
	}
	row, err := measureQuantAbove(p, q, thetas[len(thetas)-1])
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
// pinned: integer dots against one integer cut per (query, bucket), computed
// in Go, decide every row, so the assembly and the portable (-tags purego)
// kernels must both land on exactly these. Counts on a seed, not a timing.
func TestQuantScreenGuardUniform(t *testing.T) {
	const n, m, r, perQuery = 20000, 128, 50, 10
	p := data.GenerateVectors(rand.New(rand.NewSource(171)), n, r, 4.44, 1, false)
	q := data.GenerateVectors(rand.New(rand.NewSource(172)), m, r, 0.40, 1, false)
	products := allProducts(p, q)
	sort.Float64s(products)
	theta := products[len(products)-perQuery*m]
	row, err := measureQuantAbove(p, q, theta)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("θ=%.4f: %d candidates, %d entries (calibrated for %d)", theta, row.candidates, row.results, perQuery*m)
	if row.screenRate < 0.90 {
		t.Errorf("sidecar screened %.1f%% of candidates at θ=%.4f, want >= 90%%", 100*row.screenRate, theta)
	}
	const wantScreened, wantSurvived = 57986, 1916
	if row.screened != wantScreened || row.survived != wantSurvived {
		t.Errorf("sidecar screened %d and passed %d of %d candidates (%s kernels), pinned %d and %d",
			row.screened, row.survived, row.candidates, vecmath.Kernels(), wantScreened, wantSurvived)
	}
}

// BenchmarkQuantScreenSweep times Above-θ on the guards' smoke workload at
// each θ of quantThetas, one sub-benchmark per θ and arm: the default-options
// index and the Options.Quantize one, both LENGTH at Parallelism 1, so the
// time is the verification phase the screen targets. Each sub-benchmark
// checks its answer against internal/naive before it times, and reports the
// candidates per call and, where the arm screens, the share it discarded.
func BenchmarkQuantScreenSweep(b *testing.B) {
	p, q := quantWorkload(0.1)
	for _, theta := range quantThetas(p, q) {
		for _, quantize := range []bool{false, true} {
			arm := "default"
			if quantize {
				arm = "Quantize"
			}
			b.Run(fmt.Sprintf("theta=%.4f/%s", theta, arm), func(b *testing.B) {
				ix, err := core.NewIndex(p.Clone(), core.Options{Parallelism: 1, Algorithm: core.AlgL, Quantize: quantize})
				if err != nil {
					b.Fatal(err)
				}
				var out []retrieval.Entry
				pass := func() core.Stats {
					out = out[:0]
					_, st, err := ix.Retrieve(context.Background(), q, core.Problem{Theta: theta}, retrieval.Collect(&out), core.RunOptions{})
					if err != nil {
						b.Fatal(err)
					}
					return st
				}
				pass() // warm-up: lazy sidecars
				if err := checkAboveAgainstNaive(p, q, theta, out); err != nil {
					b.Fatalf("θ=%v: %v", theta, err)
				}
				var st core.Stats
				b.ResetTimer()
				for range b.N {
					st = pass()
				}
				b.ReportMetric(float64(st.Candidates), "cands/op")
				if total := st.QuantScreened + st.QuantSurvived; total > 0 {
					b.ReportMetric(float64(st.QuantScreened)/float64(total), "screened/cand")
				}
			})
		}
	}
}
