package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"lemp/internal/vecmath"
)

// θ-from-quantile: at the returned θ the brute-force Above-θ result holds
// exactly perQuery entries per query on average.
func TestThetaForResults(t *testing.T) {
	p := genCatalog(3, 3000, skewCoV)
	q := genQueries(3, 40)
	for _, workers := range []int{1, 3} {
		theta := thetaForResults(q, p, 10, workers)
		count := 0
		for i := 0; i < q.N(); i++ {
			for j := 0; j < p.N(); j++ {
				if vecmath.Dot(q.Vec(i), p.Vec(j)) >= theta {
					count++
				}
			}
		}
		if count != 10*q.N() {
			t.Errorf("workers=%d: %d products >= theta %v, want %d", workers, count, theta, 10*q.N())
		}
	}
	// More results than products: every product qualifies.
	small := genCatalog(3, 4, flatCoV)
	theta := thetaForResults(q.Head(2), small, 10, 1)
	for i := 0; i < 2; i++ {
		for j := 0; j < small.N(); j++ {
			if vecmath.Dot(q.Vec(i), small.Vec(j)) < theta {
				t.Fatalf("theta %v excludes a product although all were asked for", theta)
			}
		}
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	a, b, c := genQueries(5, 64), genQueries(5, 64), genQueries(6, 64)
	if !bytes.Equal(topKOp(a, 3, 1, 10).body, topKOp(b, 3, 1, 10).body) {
		t.Error("the same seed gave different queries")
	}
	if bytes.Equal(topKOp(a, 3, 1, 10).body, topKOp(c, 3, 1, 10).body) {
		t.Error("different seeds gave the same queries")
	}
	pa, pb := genUpdatePlan(5, 4096, 300), genUpdatePlan(5, 4096, 300)
	for j := range pa.batches {
		if !bytes.Equal(updateOp(j, pa.batches[j]).body, updateOp(j, pb.batches[j]).body) {
			t.Fatalf("the same seed gave different update batch %d", j)
		}
	}
}

func TestRequestBodiesAreWhatTheServerDecodes(t *testing.T) {
	q := genQueries(1, 20)
	var top struct {
		Queries [][]float64 `json:"queries"`
		K       int         `json:"k"`
	}
	o := topKOp(q, 2, 16, 10)
	if err := json.Unmarshal(o.body, &top); err != nil {
		t.Fatal(err)
	}
	if o.kind != opTopK16 || top.K != 10 || len(top.Queries) != 16 || top.Queries[15][dim-1] != q.Vec(17)[dim-1] {
		t.Errorf("16-row top-k body decoded to k=%d, %d rows", top.K, len(top.Queries))
	}
	var above struct {
		Queries [][]float64 `json:"queries"`
		Theta   float64     `json:"theta"`
	}
	if err := json.Unmarshal(aboveOp(q, 4, 1, 0.125).body, &above); err != nil {
		t.Fatal(err)
	}
	if above.Theta != 0.125 || len(above.Queries) != 1 || above.Queries[0][0] != q.Vec(4)[0] {
		t.Errorf("above body decoded to %+v", above)
	}
	var upd struct {
		Updates []struct {
			Op     string    `json:"op"`
			ID     *int32    `json:"id"`
			Vector []float64 `json:"vector"`
		} `json:"updates"`
	}
	plan := genUpdatePlan(1, 4096, 4)
	if err := json.Unmarshal(updateOp(0, plan.batches[0]).body, &upd); err != nil {
		t.Fatal(err)
	}
	ops := ""
	for _, u := range upd.Updates {
		ops += u.Op[:1]
		if u.ID == nil || (u.Op == "remove") != (u.Vector == nil) {
			t.Errorf("update op %+v is malformed", u)
		}
	}
	if ops != "aaaauurr" {
		t.Errorf("batch ops = %q, want 4 adds, 2 updates, 2 removes", ops)
	}
}

// The update plan must stay valid however concurrent clients interleave
// batches that are in flight together: apply it to the mirror with every
// window of in-flight batches shuffled and nothing may be rejected.
func TestUpdatePlanValidInAnyInterleaving(t *testing.T) {
	const n, batches = 4096, 900 // past removeLag, so later batches remove earlier adds
	plan := genUpdatePlan(2, n, batches)
	if len(plan.batches) != batches {
		t.Fatalf("%d batches, want %d", len(plan.batches), batches)
	}
	m := newMirror(genCatalog(2, n, flatCoV))
	rng := rand.New(rand.NewSource(1))
	order := make([]int, batches)
	for i := range order {
		order[i] = i
	}
	for lo := 0; lo < batches; lo += openCallers { // at most openCallers are ever in flight
		w := order[lo:min(lo+openCallers, batches)]
		rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
	}
	for _, j := range order {
		if err := m.apply(plan.batches[j]); err != nil {
			t.Fatalf("batch %d: %v", j, err)
		}
	}
	if got, want := len(m.ids), n+2*batches; got != want {
		t.Errorf("%d live probes after %d batches, want %d", got, batches, want)
	}
	for id := range plan.touched {
		if plan.untouched(int(id)) {
			t.Fatalf("touched id %d reported untouched", id)
		}
	}
	if plan.untouched(n) {
		t.Error("an added id is not an original probe")
	}
}

func TestMixedStreamShares(t *testing.T) {
	const cold = 600
	q := genQueries(4, mixedQueryRows(cold))
	plan := genUpdatePlan(4, 8192, 2000)
	ops := mixedStream(4, q, 0.5, plan, 10000)
	count := make(map[opKind]int)
	hot, nextBatch := 0, int32(0)
	ks := make(map[int32]int)
	for _, o := range ops {
		count[o.kind]++
		switch o.kind {
		case opTopK:
			ks[o.k]++
			if o.hot {
				hot++
				if o.row >= hotPool {
					t.Fatalf("hot op uses query row %d outside the hot pool", o.row)
				}
			}
		case opTopK16:
			if o.rows != multiRows || o.k != 10 {
				t.Fatalf("multi-row op has %d rows, k=%d", o.rows, o.k)
			}
		case opUpdate:
			if o.batch != nextBatch {
				t.Fatalf("update batch %d sent out of order (want %d)", o.batch, nextBatch)
			}
			nextBatch++
		}
	}
	within := func(name string, got int, share float64) {
		t.Helper()
		want := share * float64(len(ops))
		if d := float64(got) - want; d > 0.1*want || d < -0.1*want {
			t.Errorf("%s: %d ops, want about %.0f", name, got, want)
		}
	}
	within("single-row top-k", count[opTopK], 0.6)
	within("above", count[opAbove], 0.2)
	within("16-row top-k", count[opTopK16], 0.1)
	within("update", count[opUpdate], 0.1)
	within("hot top-k", hot, 0.6*hotShare)
	if len(ks) != len(mixKs) {
		t.Errorf("single-row top-k used k values %v, want all of %v", ks, mixKs)
	}
	// The stream ends when the single-use update batches do.
	short := mixedStream(4, q, 0.5, genUpdatePlan(4, 8192, 5), 10000)
	updates := 0
	for _, o := range short {
		if o.kind == opUpdate {
			updates++
		}
	}
	if updates != 5 || len(short) >= 10000 {
		t.Errorf("stream with 5 batches has %d updates in %d ops", updates, len(short))
	}
}
