package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lemp/internal/matrix"
	"lemp/internal/retrieval"
)

// TestStateRoundTrip rebuilds an index from its exported state and checks
// that retrieval results are identical to the original's on every exact
// algorithm, both before tuning has ever run and after a tuning pass.
func TestStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := genMatrix(rng, 40, 12, 1.0, 1, false, 1, 0)
	p := genMatrix(rng, 300, 12, 1.2, 1, false, 2, 10)
	theta, _, ok := safeThetaAt(q, p, 60)
	if !ok {
		t.Fatal("no usable threshold")
	}
	for _, alg := range Algorithms() {
		ix, err := NewIndex(p, testOptions(alg))
		if err != nil {
			t.Fatalf("NewIndex(%v): %v", alg, err)
		}
		// The retrievals build lazy indexes on the original, so the exported
		// state carries sorted lists for the algorithms that use them.
		wantTop, _, err := rowTopK(ix, q, 7)
		if err != nil {
			t.Fatalf("RowTopK(%v): %v", alg, err)
		}
		var wantAbove []retrieval.Entry
		if _, err := aboveTheta(ix, q, theta, retrieval.Collect(&wantAbove)); err != nil {
			t.Fatalf("AboveTheta(%v): %v", alg, err)
		}
		retrieval.Sort(wantAbove)

		re, err := FromState(ix.State())
		if err != nil {
			t.Fatalf("FromState(%v): %v", alg, err)
		}
		if re.N() != ix.N() || re.R() != ix.R() || re.NumBuckets() != ix.NumBuckets() {
			t.Fatalf("alg %v: restored shape %d/%d/%d, want %d/%d/%d",
				alg, re.N(), re.R(), re.NumBuckets(), ix.N(), ix.R(), ix.NumBuckets())
		}
		gotTop, _, err := rowTopK(re, q, 7)
		if err != nil {
			t.Fatalf("restored RowTopK(%v): %v", alg, err)
		}
		if !reflect.DeepEqual(gotTop, wantTop) {
			t.Fatalf("alg %v: restored RowTopK differs", alg)
		}
		var gotAbove []retrieval.Entry
		if _, err := aboveTheta(re, q, theta, retrieval.Collect(&gotAbove)); err != nil {
			t.Fatalf("restored AboveTheta(%v): %v", alg, err)
		}
		retrieval.Sort(gotAbove)
		if !reflect.DeepEqual(gotAbove, wantAbove) {
			t.Fatalf("alg %v: restored AboveTheta differs", alg)
		}
	}
}

// TestPretuneFreezesTuning checks that a pretuned index reports zero tuning
// time on retrieval calls and that the frozen flag survives a state
// round-trip.
func TestPretuneFreezesTuning(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	q := genMatrix(rng, 30, 10, 0.8, 1, false, 0, 0)
	p := genMatrix(rng, 250, 10, 1.0, 1, false, 0, 0)
	ix, err := NewIndex(p, testOptions(AlgLI))
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := rowTopK(ix, q, 5); err != nil || st.TuneTime == 0 {
		t.Fatalf("untuned LI index should tune per call: TuneTime=%v err=%v", st.TuneTime, err)
	}
	if err := ix.Pretune(q, Problem{K: 5}); err != nil {
		t.Fatal(err)
	}
	if !ix.Pretuned() {
		t.Fatal("PretuneTopK did not set the frozen flag")
	}
	if _, st, err := rowTopK(ix, q, 5); err != nil || st.TuneTime != 0 {
		t.Fatalf("pretuned index re-tuned: TuneTime=%v err=%v", st.TuneTime, err)
	}

	// The frozen fit itself survives the round-trip, bucket for bucket.
	roundTrip := func(label string) *Index {
		t.Helper()
		re, err := FromState(ix.State())
		if err != nil {
			t.Fatal(err)
		}
		got, want := re.Buckets(), ix.Buckets()
		if len(got) != len(want) {
			t.Fatalf("%s: restored %d buckets, want %d", label, len(got), len(want))
		}
		tuned := 0
		for i := range want {
			if got[i].Tuned != want[i].Tuned || got[i].TB != want[i].TB || got[i].Phi != want[i].Phi {
				t.Fatalf("%s: bucket %d restored fit (%v, %g, %d), want (%v, %g, %d)", label, i,
					got[i].Tuned, got[i].TB, got[i].Phi, want[i].Tuned, want[i].TB, want[i].Phi)
			}
			if want[i].Tuned {
				tuned++
			}
		}
		if tuned == 0 {
			t.Fatalf("%s: the pretuned index froze no bucket", label)
		}
		return re
	}
	re := roundTrip("pretuned")
	if !re.Pretuned() {
		t.Fatal("Pretuned flag lost in state round-trip")
	}
	if _, st, err := rowTopK(re, q, 5); err != nil || st.TuneTime != 0 {
		t.Fatalf("restored pretuned index re-tuned: TuneTime=%v err=%v", st.TuneTime, err)
	}

	// Unfreezing restores per-call tuning.
	st2 := ix.State()
	st2.Pretuned = false
	re2, err := FromState(st2)
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := rowTopK(re2, q, 5); err != nil || st.TuneTime == 0 {
		t.Fatalf("unfrozen restored index should tune: TuneTime=%v err=%v", st.TuneTime, err)
	}

	if err := ix.Pretune(q, Problem{Theta: math.NaN()}); err == nil {
		t.Error("NaN theta accepted by PretuneAboveTheta")
	}
	if err := ix.Pretune(matrix.New(10, 0), Problem{K: 5}); err == nil {
		t.Error("empty query sample accepted by PretuneTopK")
	}
	if err := ix.Pretune(matrix.New(3, 4), Problem{K: 5}); err == nil {
		t.Error("dimension mismatch accepted by PretuneTopK")
	}

	// Compact re-freezes on the new bucketization; that fit round-trips too.
	var ups []ProbeUpdate
	for i := 0; i < 20; i++ {
		ups = append(ups, ProbeUpdate{Op: OpAdd, ID: AutoID, Vec: randVec(rng, 10)})
		ups = append(ups, ProbeUpdate{Op: OpRemove, ID: int32(i)})
	}
	if _, err := ix.Apply(ups); err != nil {
		t.Fatal(err)
	}
	ix.Compact()
	roundTrip("compacted")
}

// TestFromStateRejectsCorruptState mutates a valid state one invariant at a
// time; every mutation must be rejected.
func TestFromStateRejectsCorruptState(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := genMatrix(rng, 120, 6, 0.9, 1, false, 0, 0)
	build := func() *State {
		ix, err := NewIndex(p.Clone(), testOptions(AlgLI))
		if err != nil {
			t.Fatal(err)
		}
		return ix.State()
	}
	// member returns the probe column of bucket b's member j (the ids are
	// the column numbers).
	member := func(st *State, b, j int) []float64 { return st.Probe.Vec(int(st.Buckets[b].IDs[j])) }
	cases := []struct {
		name   string
		mutate func(st *State)
	}{
		{"nil probe", func(st *State) { st.Probe = nil }},
		{"empty bucket", func(st *State) { st.Buckets[0].IDs = nil }},
		{"id out of range", func(st *State) { st.Buckets[0].IDs[0] = 9999 }},
		{"duplicate id", func(st *State) { st.Buckets[0].IDs[1] = st.Buckets[0].IDs[0] }},
		{"swapped ids", func(st *State) { ids := st.Buckets[0].IDs; ids[0], ids[1] = ids[1], ids[0] }},
		{"NaN probe value", func(st *State) { member(st, 0, 0)[2] = math.NaN() }},
		{"infinite probe value", func(st *State) { member(st, 1, 0)[0] = math.Inf(-1) }},
		{"probe value breaks the length order", func(st *State) { member(st, len(st.Buckets)-1, 0)[0] = 1e12 }},
		{"bad tuned phi", func(st *State) { st.Buckets[0].Tuned = true; st.Buckets[0].Phi = 0 }},
		{"NaN tb", func(st *State) { st.Buckets[0].Tuned = true; st.Buckets[0].Phi = 1; st.Buckets[0].TB = math.NaN() }},
		{"missing probes", func(st *State) { st.Buckets = st.Buckets[:len(st.Buckets)-1] }},
		{"bad options", func(st *State) { st.Opts.ShrinkFactor = 2 }},
		// Memberships that keep the lengths non-increasing but that a build
		// of these probes never produces.
		{"bucket boundary moved by one probe", func(st *State) {
			b0, b1 := st.Buckets[0].IDs, st.Buckets[1].IDs
			st.Buckets[0].IDs, st.Buckets[1].IDs = b0[:len(b0)-1], append([]int32{b0[len(b0)-1]}, b1...)
		}},
		{"bucket split in two", func(st *State) {
			ids := st.Buckets[0].IDs
			st.Buckets = slices.Insert(st.Buckets, 1, BucketState{IDs: ids[len(ids)/2:]})
			st.Buckets[0].IDs = ids[:len(ids)/2]
		}},
	}
	for _, tc := range cases {
		st := build()
		tc.mutate(st)
		if _, err := FromState(st); err == nil {
			t.Errorf("%s: corrupt state accepted", tc.name)
		}
	}
}

// exportedState is ix.State() without the sorted lists, the one part of it
// retrievals may add to: the state a snapshot written without
// IncludeLists stores.
func exportedState(ix *Index) *State {
	st := ix.State()
	st.Buckets = slices.Clone(st.Buckets)
	for i := range st.Buckets {
		st.Buckets[i].ListVals, st.Buckets[i].ListLids = nil, nil
	}
	return st
}
