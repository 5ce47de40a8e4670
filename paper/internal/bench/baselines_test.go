package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lemp/internal/core"
	"lemp/internal/matrix"
	"lemp/internal/naive"
	"lemp/internal/retrieval"
	"lemp/internal/vecmath"
)

// baselineFixture builds a many-bucket index over random probes of widely
// spread lengths and a query matrix of more than one 256-row tile, with
// zero-length rows inside it.
func baselineFixture(t *testing.T, quantize bool) (*core.Index, *matrix.Matrix, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(311))
	p, q := randMatrix(rng, 8, 300), randMatrix(rng, 8, 270)
	for _, row := range []int{0, 5, 130, 269} {
		clear(q.Vec(row))
	}
	ix, err := core.NewIndex(p, core.Options{MinBucketSize: 5, CacheBytes: 4 << 10, Quantize: quantize})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumBuckets() < 8 {
		t.Fatalf("fixture has %d buckets, want many", ix.NumBuckets())
	}
	return ix, q, rng
}

// randMatrix draws n columns of dimension r with randVec.
func randMatrix(rng *rand.Rand, r, n int) *matrix.Matrix {
	m := matrix.New(r, n)
	for j := 0; j < n; j++ {
		copy(m.Vec(j), randVec(rng, r))
	}
	return m
}

// randVec draws a Gaussian direction with a log-normally spread length.
func randVec(rng *rand.Rand, r int) []float64 {
	v := make([]float64, r)
	scale := math.Exp(0.7 * rng.NormFloat64())
	for f := range v {
		v[f] = scale * rng.NormFloat64()
	}
	return v
}

// thetaFor returns a threshold about `level` products of q and p exceed,
// centered in a gap wide enough that rounding cannot move an entry across.
func thetaFor(t *testing.T, q, p *matrix.Matrix, level int) float64 {
	t.Helper()
	var vals []float64
	for i := 0; i < q.N(); i++ {
		for j := 0; j < p.N(); j++ {
			vals = append(vals, vecmath.Dot(q.Vec(i), p.Vec(j)))
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	for l := level; l < len(vals)-1; l++ {
		if hi, lo := vals[l-1], vals[l]; lo > 0 && hi-lo > 1e-6*(1+hi) {
			return (hi + lo) / 2
		}
	}
	t.Fatalf("no positive threshold gap at or below level %d", level)
	return 0
}

// answer is one call's result: Above-θ entries in canonical order, or
// Row-Top-k rows.
type answer struct {
	entries []retrieval.Entry
	rows    retrieval.TopK
	st      core.Stats
}

func (a answer) equal(b answer) bool {
	if !slices.Equal(a.entries, b.entries) || len(a.rows) != len(b.rows) {
		return false
	}
	for i := range a.rows {
		if !slices.Equal(a.rows[i], b.rows[i]) {
			return false
		}
	}
	return a.st.Candidates == b.st.Candidates && a.st.Results == b.st.Results
}

// runCut answers prob over q with the variant, as one Retrieve at
// parallelism par, or, with panel > 0, one job run over panels of that many
// rows.
func runCut(t *testing.T, ix *core.Index, v variant, q *matrix.Matrix, prob core.Problem, par, panel int) answer {
	t.Helper()
	ro := v.runOptions(ix, q, prob)
	ro.Parallelism = par
	var a answer
	if prob.K > 0 {
		a.rows = make(retrieval.TopK, q.N())
	}
	if panel == 0 {
		panel = q.N()
	}
	job, err := ix.NewJob(prob, ro)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < q.N(); lo += panel {
		var sink retrieval.Sink
		if prob.K == 0 {
			sink = func(e retrieval.Entry) {
				e.Query += lo
				a.entries = append(a.entries, e)
			}
		}
		panelQ := q.Slice(lo, min(lo+panel, q.N()))
		var rows retrieval.TopK
		var st core.Stats
		if panel == q.N() {
			rows, st, err = ix.Retrieve(context.Background(), panelQ, prob, sink, ro)
		} else {
			rows, st, err = job.Run(context.Background(), panelQ, sink)
		}
		if err != nil {
			t.Fatal(err)
		}
		if st.Tunings != 0 || st.TuneCacheHits != 0 {
			t.Fatalf("a generator call tuned: %+v", st)
		}
		for i, row := range rows {
			for j := range row {
				row[j].Query += lo
			}
			a.rows[lo+i] = row
		}
		a.st.Add(st)
	}
	retrieval.Sort(a.entries)
	return a
}

// checkOracle compares an answer with internal/naive over the index's live
// probes: exact variants must match, BLSH — which may miss an entry with
// probability ≤ ε per candidate — must return only true entries, with their
// exact values, and at least 85 % of the Above-θ entries or 90 % of the
// Row-Top-k mass.
func checkOracle(t *testing.T, v variant, q, live *matrix.Matrix, ids []int32, prob core.Problem, got answer) {
	t.Helper()
	approx := v.name == "BLSH"
	col := make(map[int]int, len(ids))
	for c, id := range ids {
		col[int(id)] = c
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
	product := func(qi, id int) float64 {
		c, ok := col[id]
		if !ok {
			t.Fatalf("%+v: probe %d is not live", prob, id)
		}
		return vecmath.Dot(q.Vec(qi), live.Vec(c))
	}
	if prob.K == 0 {
		var want []retrieval.Entry
		naive.AboveTheta(q, live, prob.Theta, func(e retrieval.Entry) {
			e.Probe = int(ids[e.Probe])
			want = append(want, e)
		})
		for _, e := range got.entries {
			if p := product(e.Query, e.Probe); !near(e.Value, p) || p < prob.Theta {
				t.Fatalf("%+v: entry %+v, product %g", prob, e, p)
			}
		}
		if approx {
			if recall := float64(len(got.entries)) / float64(len(want)); recall < 0.85 {
				t.Fatalf("%+v: recall %.3f (%d of %d)", prob, recall, len(got.entries), len(want))
			}
		} else if !retrieval.EqualSets(got.entries, want) {
			t.Fatalf("%+v: %d entries, oracle %d", prob, len(got.entries), len(want))
		}
		return
	}
	want, _ := naive.RowTopK(q, live, prob.K)
	var mass, wantMass float64
	for i, row := range got.rows {
		if len(row) != len(want[i]) {
			t.Fatalf("%+v row %d: %d entries, want %d", prob, i, len(row), len(want[i]))
		}
		seen := make(map[int]bool, len(row))
		for j, e := range row {
			if seen[e.Probe] || e.Query != i || !near(e.Value, product(i, e.Probe)) {
				t.Fatalf("%+v row %d rank %d: %+v (duplicate %v, product %g)", prob, i, j, e, seen[e.Probe], product(i, e.Probe))
			}
			seen[e.Probe] = true
			if !approx && !near(e.Value, want[i][j].Value) {
				t.Fatalf("%+v row %d rank %d: value %g, oracle %g", prob, i, j, e.Value, want[i][j].Value)
			}
			mass += e.Value
			wantMass += want[i][j].Value
		}
	}
	if approx && mass < 0.9*wantMass {
		t.Fatalf("%+v: top-k mass %.3f far below exact %.3f", prob, mass, wantMass)
	}
}

// TestBucketGeneratorsMatchNaive is the differential test of the four
// baselines run through core.RunOptions.Gen: on a fresh index, one carrying
// tombstones and delta buckets after Apply, and the same index after
// Compact, with and without the int8 screen, every variant must answer
// Above-θ at two thresholds (the higher first, so a per-bucket index built
// for it cannot leak into the lower one) and Row-Top-k with k below and
// above the live count as internal/naive does — BLSH within its error
// bound — and give the same rows, value bits and candidate counts at
// Parallelism 1 and 4 and as one job cut into 7-row panels. The sixteen
// cases build their own fixtures and run in parallel.
func TestBucketGeneratorsMatchNaive(t *testing.T) {
	for _, v := range baselines {
		for _, mutate := range []bool{false, true} {
			for _, quantize := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/mutated=%v/quant=%v", v.name, mutate, quantize), func(t *testing.T) {
					t.Parallel()
					ix, q, rng := baselineFixture(t, quantize)
					check := func(stage string) {
						live, ids := ix.LiveProbes()
						for _, prob := range []core.Problem{
							{Theta: thetaFor(t, q, live, 100)}, {Theta: thetaFor(t, q, live, 1500)},
							{K: 7}, {K: live.N() + 5},
						} {
							ref := runCut(t, ix, v, q, prob, 1, 0)
							checkOracle(t, v, q, live, ids, prob, ref)
							if prob.K == 0 && (ref.st.PrunedPairs == 0 || ref.st.Results == 0) {
								t.Fatalf("%s %+v: degenerate fixture %+v", stage, prob, ref.st)
							}
							if quantize && prob.K <= live.N() && ref.st.QuantScreened == 0 {
								t.Fatalf("%s %+v: the quantized fixture screened nothing", stage, prob)
							}
							for _, cut := range [][2]int{{4, 0}, {1, 7}} {
								if got := runCut(t, ix, v, q, prob, cut[0], cut[1]); !got.equal(ref) {
									t.Fatalf("%s %+v: parallelism %d, panels of %d differ from one serial call", stage, prob, cut[0], cut[1])
								}
							}
						}
					}
					check("fresh")
					if !mutate {
						return
					}
					var ups []core.ProbeUpdate
					for id := int32(0); id < 60; id += 3 {
						ups = append(ups, core.ProbeUpdate{Op: core.OpRemove, ID: id})
					}
					for i := 0; i < 50; i++ {
						ups = append(ups, core.ProbeUpdate{Op: core.OpAdd, ID: int32(1000 + i), Vec: randVec(rng, ix.R())})
					}
					for id := int32(100); id < 130; id += 2 {
						ups = append(ups, core.ProbeUpdate{Op: core.OpUpdate, ID: id, Vec: randVec(rng, ix.R())})
					}
					if _, err := ix.Apply(ups); err != nil {
						t.Fatal(err)
					}
					if !slices.ContainsFunc(ix.Buckets(), func(b core.BucketInfo) bool { return b.Delta }) {
						t.Fatal("mutated fixture has no delta buckets")
					}
					check("applied")
					ix.Compact()
					check("compacted")
				})
			}
		}
	}
}
