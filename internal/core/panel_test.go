package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"lemp/internal/matrix"
	"lemp/internal/retrieval"
)

func panelFixture(t *testing.T, m, n, r int, seed int64) (*Index, *matrix.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := matrix.New(r, n)
	p.FillRandom(rng)
	q := matrix.New(r, m)
	q.FillRandom(rng)
	// A few zero queries exercise the zero-row path.
	for f := 0; f < r; f++ {
		q.Vec(3)[f] = 0
	}
	ix, err := NewIndex(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ix, q
}

// Row-Top-k answers must be independent of how the query matrix is cut
// into panels: every panel row must equal the corresponding row of a
// full-matrix call.
func TestPanelTopKMatchesFullCall(t *testing.T) {
	ix, q := panelFixture(t, 61, 400, 12, 7)
	const k = 5
	want, _, err := rowTopK(ix, q, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, panelRows := range []int{1, 7, 16, 61, 100} {
		pr, err := ix.NewJob(Problem{K: k}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < q.N(); lo += panelRows {
			hi := lo + panelRows
			if hi > q.N() {
				hi = q.N()
			}
			rows, _, err := pr.Run(context.Background(), q.Slice(lo, hi), nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range rows {
				got := make([]retrieval.Entry, len(row))
				copy(got, row)
				for j := range got {
					got[j].Query += lo // panel-local -> global row id
				}
				if !reflect.DeepEqual(got, want[lo+i]) {
					t.Fatalf("panelRows=%d row %d: got %v want %v", panelRows, lo+i, got, want[lo+i])
				}
			}
		}
	}
}

// Concurrent Run calls on one Job — the bulk engine's access pattern — must
// produce the same rows as one full call, for both problems, with exactly
// one tuning pass for the whole job under a tuned algorithm.
func TestPanelRunConcurrentPanels(t *testing.T) {
	ix, q := panelFixture(t, 96, 300, 10, 11)
	ctx := context.Background()
	const panelRows = 8
	li := AlgLI
	for _, prob := range []Problem{{K: 3}, {Theta: 2.5}} {
		want, _ := cutAnswer(t, q, prob, q.N(), func(q *matrix.Matrix, sink retrieval.Sink) (retrieval.TopK, Stats, error) {
			return ix.Retrieve(ctx, q, prob, sink, RunOptions{Algorithm: &li})
		})
		job, err := ix.NewJob(prob, RunOptions{Algorithm: &li})
		if err != nil {
			t.Fatal(err)
		}
		nPanels := (q.N() + panelRows - 1) / panelRows
		got := make([][]retrieval.Entry, q.N()) // each panel writes only its own rows
		statsByPanel := make([]Stats, nPanels)
		var wg sync.WaitGroup
		for pi := 0; pi < nPanels; pi++ {
			wg.Add(1)
			go func(pi int) {
				defer wg.Done()
				lo := pi * panelRows
				var sink retrieval.Sink
				if prob.K == 0 {
					sink = func(e retrieval.Entry) {
						e.Query += lo
						got[e.Query] = append(got[e.Query], e)
					}
				}
				rows, st, err := job.Run(ctx, q.Slice(lo, min(lo+panelRows, q.N())), sink)
				if err != nil {
					t.Error(err)
					return
				}
				for i, row := range rows {
					for j := range row {
						row[j].Query += lo // panel-local -> global row id
					}
					got[lo+i] = row
				}
				statsByPanel[pi] = st
			}(pi)
		}
		wg.Wait()
		tunings := 0
		for _, st := range statsByPanel {
			tunings += st.Tunings
		}
		if tunings != 1 {
			t.Fatalf("%+v: job ran %d tuning passes, want exactly 1", prob, tunings)
		}
		entries := 0
		for i := range want {
			if prob.K == 0 {
				retrieval.Sort(got[i])
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%+v row %d:\n got %v\nwant %v", prob, i, got[i], want[i])
			}
			entries += len(want[i])
		}
		if entries == 0 {
			t.Fatalf("%+v: fixture yields no entries", prob)
		}
	}
}

// Above-θ panels must recover exactly the full call's entry set, across
// independent jobs (each tunes on its own first panel — the resume
// scenario of the bulk engine, which canonicalizes row order before
// encoding precisely because emit order may differ between jobs).
func TestPanelAboveMatchesFullCall(t *testing.T) {
	ix, q := panelFixture(t, 48, 350, 10, 13)
	const theta = 2.5
	var want []retrieval.Entry
	if _, err := aboveTheta(ix, q, theta, retrieval.Collect(&want)); err != nil {
		t.Fatal(err)
	}
	retrieval.Sort(want)
	collect := func() []retrieval.Entry {
		pr, err := ix.NewJob(Problem{Theta: theta}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var got []retrieval.Entry
		const panelRows = 13
		for lo := 0; lo < q.N(); lo += panelRows {
			hi := lo + panelRows
			if hi > q.N() {
				hi = q.N()
			}
			_, _, err := pr.Run(context.Background(), q.Slice(lo, hi), func(e retrieval.Entry) {
				e.Query += lo
				got = append(got, e)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return got
	}
	first := collect()
	second := collect()
	retrieval.Sort(first)
	retrieval.Sort(second)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("Above-θ entry set differs between independent panel jobs")
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("panel Above-θ entries differ from full call: got %d want %d", len(first), len(want))
	}
}

// Bad parameters fail at construction; a sink that does not fit the job's
// problem and a wrong dimension fail at the call, before any work.
func TestPanelRunValidation(t *testing.T) {
	ix, q := panelFixture(t, 8, 50, 6, 17)
	if _, err := ix.NewJob(Problem{K: 0}, RunOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ix.NewJob(Problem{Theta: 0}, RunOptions{}); err == nil {
		t.Error("theta=0 accepted")
	}
	pr, err := ix.NewJob(Problem{K: 2}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pr.Run(context.Background(), q, func(retrieval.Entry) {}); err == nil {
		t.Error("a sink accepted on a Row-Top-k job")
	}
	above, err := ix.NewJob(Problem{Theta: 1}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := above.Run(context.Background(), q, nil); err == nil {
		t.Error("a nil sink accepted on an Above-θ job")
	}
	bad := matrix.New(ix.R()+1, 2)
	if _, _, err := pr.Run(context.Background(), bad, nil); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// TestLengthJobNeverTunes: the panels of a Job under algorithm L fit
// nothing and build no sorted list, for both problems.
func TestLengthJobNeverTunes(t *testing.T) {
	ix, q := panelFixture(t, 96, 300, 10, 11)
	l := AlgL
	for _, prob := range []Problem{{K: 3}, {Theta: 2.5}} {
		job, err := ix.NewJob(prob, RunOptions{Algorithm: &l, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		var sink retrieval.Sink
		if prob.K == 0 {
			sink = func(retrieval.Entry) {}
		}
		for lo := 0; lo < q.N(); lo += 16 {
			_, st, err := job.Run(context.Background(), q.Slice(lo, lo+16), sink)
			if err != nil {
				t.Fatal(err)
			}
			if st.Tunings != 0 || st.TuneTime != 0 {
				t.Fatalf("%+v: panel at row %d ran %d tunings in %v", prob, lo, st.Tunings, st.TuneTime)
			}
		}
		if b := ix.ListBytes(); b != 0 {
			t.Fatalf("%+v: the job built %d bytes of sorted lists", prob, b)
		}
	}
}
