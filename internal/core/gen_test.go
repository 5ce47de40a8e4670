package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lemp/internal/naive"
	"lemp/internal/retrieval"
)

// Two exact generators for the RunOptions.Gen hook: one writes out every
// local id of the bucket, the other hands back the whole bucket as a prefix.
// The paper's baselines plug into the same hook from the paper/ module.

type allLidsGen struct{}

func (allLidsGen) Worker() GenFunc {
	return func(b Bucket, _ Pair, cand []int32) ([]int32, int) {
		for lid := range b.Size() {
			cand = append(cand, int32(lid))
		}
		return cand, 0
	}
}

type wholeBucketGen struct{}

func (wholeBucketGen) Worker() GenFunc {
	return func(b Bucket, _ Pair, cand []int32) ([]int32, int) { return cand, b.Size() }
}

// Whatever an exact generator proposes, the scan keeps its own pruning,
// drops tombstoned probes and verifies exactly: on an index holding a
// tombstone, with and without the int8 screen, both generators must answer
// Above-θ and Row-Top-k as internal/naive does over the live probes, ids and
// value bits, and tune nothing.
func TestGenHookMatchesNaive(t *testing.T) {
	for _, g := range []struct {
		name string
		gen  CandidateGen
	}{{"all-lids", allLidsGen{}}, {"whole-bucket", wholeBucketGen{}}} {
		for _, quantize := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/quant=%v", g.name, quantize), func(t *testing.T) {
				rng := rand.New(rand.NewSource(41))
				p := genMatrix(rng, 300, 8, 0.7, 1, false, 0, 0)
				q := genMatrix(rng, 40, 8, 0.5, 1, false, 0, 0)
				opts := testOptions(AlgL)
				opts.Quantize = quantize
				ix, err := NewIndex(p, opts)
				if err != nil {
					t.Fatal(err)
				}
				// The longest probe is in many rows' top-k: its tombstone
				// must keep it out of every answer.
				lens := p.Lengths()
				longest := int32(slices.Index(lens, slices.Max(lens)))
				if _, err := ix.Apply([]ProbeUpdate{{Op: OpRemove, ID: longest}}); err != nil {
					t.Fatal(err)
				}
				if base := ix.segs[0]; base.live == len(base.ids) {
					t.Fatal("the fixture holds no tombstone")
				}
				live, ids := ix.LiveProbes()
				ro := RunOptions{Gen: g.gen}

				theta, _ := safeTheta(t, q, live, 200)
				var got, want []retrieval.Entry
				_, st, err := ix.Retrieve(context.Background(), q, Problem{Theta: theta}, retrieval.Collect(&got), ro)
				if err != nil {
					t.Fatal(err)
				}
				naive.AboveTheta(q, live, theta, func(e retrieval.Entry) {
					e.Probe = int(ids[e.Probe])
					want = append(want, e)
				})
				if retrieval.Sort(got); !slices.Equal(got, want) {
					t.Fatalf("Above-θ: %d entries, naive %d", len(got), len(want))
				}
				if st.Tunings != 0 || (quantize && st.QuantScreened == 0) {
					t.Fatalf("Above-θ counters %+v: a generator call tuned, or the quantized index screened nothing", st)
				}

				const k = 10
				rows, st, err := ix.Retrieve(context.Background(), q, Problem{K: k}, nil, ro)
				if err != nil {
					t.Fatal(err)
				}
				wantRows, _ := naive.RowTopK(q, live, k)
				for _, row := range wantRows {
					for j := range row {
						row[j].Probe = int(ids[row[j].Probe])
					}
				}
				compareTopK(t, "Row-Top-k", rows, wantRows)
				if st.Tunings != 0 {
					t.Fatalf("Row-Top-k: a generator call tuned: %+v", st)
				}
			})
		}
	}
}
