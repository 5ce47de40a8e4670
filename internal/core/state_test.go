package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lemp/internal/matrix"
	"lemp/internal/quant"
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
		// The retrievals build lazy indexes on the original; the restore
		// builds its own.
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

	// A state without the sample restores unfrozen: per-call tuning again.
	st2 := ix.State()
	st2.TuneSample = nil
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
// time; every mutation must be rejected: by the build, or by the Pretune
// that restores the retained tuning sample.
func TestFromStateRejectsCorruptState(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := genMatrix(rng, 120, 6, 0.9, 1, false, 0, 0)
	sample := genMatrix(rng, 10, 6, 0.9, 1, false, 0, 0)
	build := func() *State {
		ix, err := NewIndex(p.Clone(), testOptions(AlgLI))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Pretune(sample, Problem{K: 3}); err != nil {
			t.Fatal(err)
		}
		return ix.State()
	}
	cases := []struct {
		name   string
		mutate func(st *State)
	}{
		{"nil probe", func(st *State) { st.Probe = nil }},
		{"NaN probe value", func(st *State) { st.Probe.Vec(0)[2] = math.NaN() }},
		{"infinite probe value", func(st *State) { st.Probe.Vec(1)[0] = math.Inf(-1) }},
		{"bad options", func(st *State) { st.Opts.ShrinkFactor = 2 }},
		{"duplicate id", func(st *State) { st.IDs = identityIDs(st.Probe.N()); st.IDs[1] = st.IDs[0] }},
		{"tuning sample of another dimension", func(st *State) { st.TuneSample = matrix.New(5, 4) }},
		{"empty tuning sample", func(st *State) { st.TuneSample = matrix.New(6, 0) }},
		{"NaN in the tuning sample", func(st *State) { st.TuneSample = st.TuneSample.Clone(); st.TuneSample.Vec(0)[0] = math.NaN() }},
		{"invalid tuning problem", func(st *State) { st.TuneProblem = Problem{Theta: math.NaN()} }},
	}
	for _, tc := range cases {
		st := build()
		tc.mutate(st)
		if _, err := FromState(st); err == nil {
			t.Errorf("%s: corrupt state accepted", tc.name)
		}
	}
}

// TestStateOfMutatedIndexMatchesCompaction: State of a mutated index
// exports, without compacting it, the probes, ids, epoch and AutoID mark
// that a compacted clone of it exports, for a LENGTH index and a pretuned
// cost-fitted LI one at Parallelism 1 and 4; the receiver keeps its delta
// mass and its preprocessing time.
func TestStateOfMutatedIndexMatchesCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := genMatrix(rng, 300, 8, 1.2, 1, false, 2, 4)
	sample := genMatrix(rng, 12, 8, 1.0, 1, false, 0, 0)
	var ups []ProbeUpdate
	for i := 0; i < 40; i++ {
		ups = append(ups, ProbeUpdate{Op: OpAdd, ID: AutoID, Vec: randVec(rng, 8)})
		ups = append(ups, ProbeUpdate{Op: OpRemove, ID: int32(3 * i)})
	}
	ups = append(ups, ProbeUpdate{Op: OpUpdate, ID: 301, Vec: randVec(rng, 8)}, ProbeUpdate{Op: OpAdd, ID: 1000, Vec: randVec(rng, 8)})
	for _, alg := range []Algorithm{AlgL, AlgLI} {
		for _, par := range []int{1, 4} {
			opts := testOptions(alg)
			opts.Parallelism = par
			ix, err := NewIndex(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if alg == AlgLI {
				if err := ix.Pretune(sample, Problem{K: 5}); err != nil {
					t.Fatal(err)
				}
			}
			for _, batch := range [][]ProbeUpdate{ups[:60], ups[60:]} {
				if _, err := ix.Apply(batch); err != nil {
					t.Fatal(err)
				}
			}
			mass, prep := ix.DeltaMass(), ix.PrepTime()
			if mass == 0 || len(ix.segs) < 2 {
				t.Fatalf("%v par %d: the batches left delta mass %g over %d segments", alg, par, mass, len(ix.segs))
			}
			got := ix.State()
			if ix.DeltaMass() != mass || ix.PrepTime() != prep {
				t.Fatalf("%v par %d: State changed the receiver: delta mass %g → %g, prep time %v → %v", alg, par, mass, ix.DeltaMass(), prep, ix.PrepTime())
			}
			cp := ix.shallowClone()
			cp.Compact()
			want := cp.State()
			if !reflect.DeepEqual(got.Probe, want.Probe) || !slices.Equal(got.IDs, want.IDs) || got.Epoch != want.Epoch || got.NextID != want.NextID {
				t.Fatalf("%v par %d: the mutated index's state differs from its compaction's", alg, par)
			}
			if (got.TuneSample != nil) != (alg == AlgLI) {
				t.Fatalf("%v par %d: tuning sample %v", alg, par, got.TuneSample != nil)
			}
		}
	}
}

// TestFromStateKeepsScanOrderInPlace: a state Index.State exported, of an
// unmutated index and of a mutated one, is in scan order, and FromState
// keeps it where it lies: every bucket's rows and ids are windows of the
// state's matrix and ids, in bucket order, each capacity cut at its end, as
// is its lengths slice. A state out of scan order is copied
// into bucket rows, and both restore the exporting index's buckets and its
// re-exported state. Every bucket of every index here, built, mutated or
// restored either way, quantizes (Options.Quantize) at the step its length
// pass found: the sidecar its first use builds is quant.QuantizeRows' of
// its rows.
func TestFromStateKeepsScanOrderInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	p := genMatrix(rng, 400, 8, 1.2, 1, false, 2, 4)
	opts := testOptions(AlgL)
	opts.Quantize = true
	ix, err := NewIndex(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	sidecarsOfRows := func(what string, ix *Index) {
		t.Helper()
		for bi, b := range ix.scan {
			got, want := b.ensureSidecar(), quant.QuantizeRows(b.rows, b.r)
			if got == nil || got.Scale != want.Scale || !slices.Equal(got.Codes, want.Codes) {
				t.Fatalf("%s: bucket %d's sidecar is not its rows' (step %v, want %v)", what, bi, got.Scale, want.Scale)
			}
		}
	}
	sidecarsOfRows("built", ix)
	mutated := ix.shallowClone()
	if _, err := mutated.Apply([]ProbeUpdate{
		{Op: OpAdd, ID: AutoID, Vec: randVec(rng, 8)},
		{Op: OpRemove, ID: 7},
		{Op: OpUpdate, ID: 11, Vec: randVec(rng, 8)},
	}); err != nil {
		t.Fatal(err)
	}
	sidecarsOfRows("mutated", mutated)
	for name, src := range map[string]*Index{"unmutated": ix, "mutated": mutated} {
		st := src.State()
		want := src.State()
		re, err := FromState(st)
		if err != nil {
			t.Fatal(err)
		}
		sidecarsOfRows(name+" restored", re)
		base := re.segs[0]
		data, at := st.Probe.Data(), 0
		for bi, b := range base.buckets {
			n := b.size()
			if &b.rows[0] != &data[at*re.r] || cap(b.rows) != n*re.r || &b.ids[0] != &st.IDs[at] || cap(b.ids) != n || cap(b.lens) != n {
				t.Fatalf("%s: bucket %d is not the window [%d, %d) of the state", name, bi, at, at+n)
			}
			at += n
		}
		if at != st.Probe.N() {
			t.Fatalf("%s: the buckets hold %d of %d probes", name, at, st.Probe.N())
		}
		got := re.State()
		if !reflect.DeepEqual(got.Probe, want.Probe) || !slices.Equal(got.IDs, want.IDs) {
			t.Fatalf("%s: the restore re-exports another state", name)
		}

		// Out of scan order: the reversed state restores by sorting and copying.
		rev := src.State()
		n := rev.Probe.N()
		for i := range n / 2 {
			a, b := rev.Probe.Vec(i), rev.Probe.Vec(n-1-i)
			for f := range a {
				a[f], b[f] = b[f], a[f]
			}
			rev.IDs[i], rev.IDs[n-1-i] = rev.IDs[n-1-i], rev.IDs[i]
		}
		sorted, err := FromState(rev)
		if err != nil {
			t.Fatal(err)
		}
		if &sorted.segs[0].buckets[0].rows[0] == &rev.Probe.Data()[0] {
			t.Fatalf("%s: a state out of scan order was kept in place", name)
		}
		sidecarsOfRows(name+" restored by sorting", sorted)
		if !reflect.DeepEqual(sorted.Buckets(), re.Buckets()) {
			t.Fatalf("%s: the reversed state restores other buckets", name)
		}
	}
}
