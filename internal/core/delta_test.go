package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lemp/internal/matrix"
	"lemp/internal/retrieval"
)

// ---------------------------------------------------------------------------
// Differential property harness for dynamic probe updates: random sequences
// of add/remove/update interleaved with Row-Top-k and Above-θ queries,
// asserting byte-identical results against an index freshly built over the
// same effective probe set — across bucket counts, dimensions, algorithms
// and Smoke-profile-like shapes. This is the main correctness argument for
// the delta layer: a mutated index must be observationally indistinguishable
// from a rebuild.
// ---------------------------------------------------------------------------

// probeModel is the reference state: the live probe set by external id.
type probeModel struct {
	vecs map[int32][]float64
}

func (m *probeModel) clone() *probeModel {
	c := &probeModel{vecs: make(map[int32][]float64, len(m.vecs))}
	for id, v := range m.vecs {
		c.vecs[id] = v
	}
	return c
}

// freshIndex builds an index from scratch over the model's live probe set,
// columns in ascending id order so stable-sort tie-breaking matches the
// mutated index's deterministic ordering rules.
func (m *probeModel) freshIndex(t *testing.T, r int, opts Options) *Index {
	t.Helper()
	ids := make([]int32, 0, len(m.vecs))
	for id := range m.vecs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	p := matrix.New(r, len(ids))
	for i, id := range ids {
		copy(p.Vec(i), m.vecs[id])
	}
	var extIDs []int32
	if len(ids) > 0 {
		extIDs = ids
	}
	ix, err := NewIndexWithIDs(p, extIDs, opts)
	if err != nil {
		t.Fatalf("fresh index: %v", err)
	}
	return ix
}

// randVec draws a Gaussian vector with a lognormal length scale; exact
// value ties between distinct probes are then probability-zero, so
// "byte-identical results" is a meaningful requirement.
func randVec(rng *rand.Rand, r int) []float64 {
	v := make([]float64, r)
	for f := range v {
		v[f] = rng.NormFloat64()
	}
	scale := math.Exp(0.6 * rng.NormFloat64())
	for f := range v {
		v[f] *= scale
	}
	return v
}

// randomBatch draws 1..6 ops valid for the current model, mutating the
// model in step. Returns the ops and the ids the adds are expected to get.
func randomBatch(rng *rand.Rand, model *probeModel, nextID *int32, r int) []ProbeUpdate {
	n := 1 + rng.Intn(6)
	ups := make([]ProbeUpdate, 0, n)
	for len(ups) < n {
		liveIDs := make([]int32, 0, len(model.vecs))
		for id := range model.vecs {
			liveIDs = append(liveIDs, id)
		}
		sort.Slice(liveIDs, func(a, b int) bool { return liveIDs[a] < liveIDs[b] })
		switch op := rng.Intn(3); {
		case op == 0 || len(liveIDs) == 0: // add
			vec := randVec(rng, r)
			id := *nextID
			if rng.Intn(4) == 0 { // explicit id, occasionally far ahead
				id += int32(rng.Intn(5))
			}
			if id >= *nextID {
				*nextID = id + 1
			}
			ups = append(ups, ProbeUpdate{Op: OpAdd, ID: id, Vec: vec})
			model.vecs[id] = vec
		case op == 1: // remove
			id := liveIDs[rng.Intn(len(liveIDs))]
			ups = append(ups, ProbeUpdate{Op: OpRemove, ID: id})
			delete(model.vecs, id)
		default: // update
			id := liveIDs[rng.Intn(len(liveIDs))]
			vec := randVec(rng, r)
			ups = append(ups, ProbeUpdate{Op: OpUpdate, ID: id, Vec: vec})
			model.vecs[id] = vec
		}
	}
	return ups
}

// sortRow orders a top-k row canonically (value desc, probe asc) so that
// equal result sets compare equal regardless of heap emission order.
func sortRow(row []retrieval.Entry) {
	sort.Slice(row, func(a, b int) bool {
		if row[a].Value != row[b].Value {
			return row[a].Value > row[b].Value
		}
		return row[a].Probe < row[b].Probe
	})
}

// checkEqual runs Row-Top-k and Above-θ on both indexes and requires
// byte-identical results. The mutated index answers three times: under its
// own algorithm, and overridden to L and to LI, the untuned method and the
// paper's tuned winner, which must agree entry for entry whatever built the
// index.
func checkEqual(t *testing.T, tag string, mutated, fresh *Index, q *matrix.Matrix, k int) {
	t.Helper()
	if got, want := mutated.LiveN(), fresh.LiveN(); got != want {
		t.Fatalf("%s: LiveN %d, fresh %d", tag, got, want)
	}
	ctx := context.Background()
	wantTop, _, err := rowTopK(fresh, q, k)
	if err != nil {
		t.Fatalf("%s: fresh RowTopK: %v", tag, err)
	}
	for _, row := range wantTop {
		sortRow(row)
	}
	// Pick θ from the fresh top values so the Above-θ result set is
	// usually non-empty; fall back to a θ that must yield nothing.
	theta := 1.0
	best := math.Inf(-1)
	for _, row := range wantTop {
		if len(row) > 0 && row[0].Value > best {
			best = row[0].Value
		}
	}
	if best > 0 {
		theta = best * 0.4
	}
	var want []retrieval.Entry
	if _, err := aboveTheta(fresh, q, theta, retrieval.Collect(&want)); err != nil {
		t.Fatalf("%s: fresh AboveTheta: %v", tag, err)
	}
	retrieval.Sort(want)

	l, li := AlgL, AlgLI
	for _, alg := range []*Algorithm{nil, &l, &li} {
		run, name := RunOptions{Algorithm: alg}, "own"
		if alg != nil {
			name = alg.String()
		}
		gotTop, _, err := mutated.Retrieve(ctx, q, Problem{K: k}, nil, run)
		if err != nil {
			t.Fatalf("%s (%s): mutated RowTopK: %v", tag, name, err)
		}
		for i, w := range wantTop {
			g := gotTop[i]
			sortRow(g)
			if len(g) != len(w) {
				t.Fatalf("%s (%s): query %d: %d entries, fresh %d", tag, name, i, len(g), len(w))
			}
			for j := range w {
				if g[j].Probe != w[j].Probe || g[j].Value != w[j].Value {
					t.Fatalf("%s (%s): query %d entry %d: got (probe %d, %v), fresh (probe %d, %v)",
						tag, name, i, j, g[j].Probe, g[j].Value, w[j].Probe, w[j].Value)
				}
			}
		}
		var got []retrieval.Entry
		if _, _, err := mutated.Retrieve(ctx, q, Problem{Theta: theta}, retrieval.Collect(&got), run); err != nil {
			t.Fatalf("%s (%s): mutated AboveTheta: %v", tag, name, err)
		}
		retrieval.Sort(got)
		if len(got) != len(want) {
			t.Fatalf("%s (%s): above-θ %d entries, fresh %d (θ=%v)", tag, name, len(got), len(want), theta)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s (%s): above-θ entry %d: got %+v, fresh %+v", tag, name, j, got[j], want[j])
			}
		}
	}
}

// diffAlgorithms are the bucket algorithms tests cycle through.
var diffAlgorithms = []Algorithm{AlgLI, AlgL, AlgC, AlgI, AlgLC}

// TestDifferentialMutations is the acceptance harness: ≥1000 randomized
// mutation/query sequences, each asserting exact equality between the
// mutated index and a fresh build over the same effective probe set, a
// third of them from a base over shuffled, sparse caller ids.
func TestDifferentialMutations(t *testing.T) {
	sequences := 1100
	if testing.Short() {
		sequences = 200
	}
	checks := 0
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(7000 + seq)))
		r := []int{1, 2, 3, 8, 16}[rng.Intn(5)]
		n0 := rng.Intn(90)
		opts := Options{
			Algorithm:     diffAlgorithms[seq%len(diffAlgorithms)],
			MinBucketSize: []int{1, 2, 5, 30}[rng.Intn(4)],
			CacheBytes:    []int{-1, 2048, 2 << 20}[rng.Intn(3)],
			Parallelism:   1 + rng.Intn(2),
			TuneByCost:    rng.Intn(2) == 0,
			Quantize:      rng.Intn(2) == 0,
		}
		// The fresh comparison index draws Quantize independently, so the
		// harness covers all four screening on/off combinations: quantized
		// screening must never change exact results.
		freshOpts := opts
		freshOpts.Quantize = rng.Intn(2) == 0

		// Every third sequence builds over caller-chosen ids, shuffled and
		// sparse, so the base segment finds its own ids through its id →
		// column lookup: removes, rewrites and revivals of them exercise it.
		var baseIDs []int32
		if seq%3 == 2 {
			baseIDs = make([]int32, n0)
			for col, k := range rng.Perm(n0) {
				baseIDs[col] = int32(5*k + 2)
			}
		}
		model := &probeModel{vecs: make(map[int32][]float64)}
		p := matrix.New(r, n0)
		for i := 0; i < n0; i++ {
			vec := randVec(rng, r)
			copy(p.Vec(i), vec)
			id := int32(i)
			if baseIDs != nil {
				id = baseIDs[i]
			}
			model.vecs[id] = vec
		}
		ix, err := NewIndexWithIDs(p, baseIDs, opts)
		if err != nil {
			t.Fatal(err)
		}
		nextID := ix.NextID()
		removed := int32(-1) // an id the model once held and no longer does

		steps := 1 + rng.Intn(5)
		for step := 0; step < steps; step++ {
			preModel := model.clone()
			ups := randomBatch(rng, model, &nextID, r)
			if baseIDs != nil && rng.Intn(2) == 0 { // revive a removed base id
				for _, id := range baseIDs {
					if model.vecs[id] == nil {
						vec := randVec(rng, r)
						ups = append(ups, ProbeUpdate{Op: OpAdd, ID: id, Vec: vec})
						model.vecs[id] = vec
						break
					}
				}
			}
			epochBefore := ix.Epoch()
			if rng.Intn(4) == 0 {
				// Copy-on-write path: derive, then verify the old index
				// still answers for the pre-batch model (non-interference).
				derived, _, err := ix.WithUpdates(ups)
				if err != nil {
					t.Fatalf("seq %d step %d: WithUpdates: %v", seq, step, err)
				}
				if ix.Epoch() != epochBefore {
					t.Fatalf("seq %d step %d: WithUpdates mutated the receiver's epoch", seq, step)
				}
				if step == 0 && seq%20 == 0 {
					qOld := matrix.New(r, 1)
					copy(qOld.Vec(0), randVec(rng, r))
					checkEqual(t, fmt.Sprintf("seq %d step %d (pre-COW)", seq, step),
						ix, preModel.freshIndex(t, r, freshOpts), qOld, 4)
				}
				ix = derived
			} else {
				if _, err := ix.Apply(ups); err != nil {
					t.Fatalf("seq %d step %d: Apply: %v", seq, step, err)
				}
			}
			if ix.Epoch() != epochBefore+1 {
				t.Fatalf("seq %d step %d: epoch %d after batch, want %d", seq, step, ix.Epoch(), epochBefore+1)
			}
			switch rng.Intn(6) {
			case 0:
				ix.Compact()
				if ix.DeltaMass() != 0 {
					t.Fatalf("seq %d step %d: delta mass %v after Compact", seq, step, ix.DeltaMass())
				}
			case 1:
				ix.MaybeCompact(0.5)
			}

			// Has agrees with the model: on every live id, on a removed one
			// and on one never used.
			if removed >= 0 && model.vecs[removed] != nil {
				removed = -1
			}
			for _, up := range ups {
				if up.Op == OpRemove && model.vecs[up.ID] == nil {
					removed = up.ID
				}
			}
			for id := range model.vecs {
				if !ix.Has(id) {
					t.Fatalf("seq %d step %d: Has(%d) false for a live id", seq, step, id)
				}
			}
			if removed >= 0 && ix.Has(removed) {
				t.Fatalf("seq %d step %d: Has(%d) true for a removed id", seq, step, removed)
			}
			if ix.Has(nextID) {
				t.Fatalf("seq %d step %d: Has(%d) true for an id never used", seq, step, nextID)
			}

			if rng.Intn(10) < 7 {
				m := 1 + rng.Intn(3)
				q := matrix.New(r, m)
				for i := 0; i < m; i++ {
					if rng.Intn(8) == 0 {
						continue // zero query: exercises zeroQueryRow merging
					}
					copy(q.Vec(i), randVec(rng, r))
				}
				k := []int{1, 3, 10, len(model.vecs) + 5}[rng.Intn(4)]
				fresh := model.freshIndex(t, r, freshOpts)
				checkEqual(t, fmt.Sprintf("seq %d step %d", seq, step), ix, fresh, q, k)
				checks++
			}
		}
	}
	t.Logf("%d sequences, %d differential checks", sequences, checks)
}

// churnBatch draws 1..6 ops valid for the model, mutating it in step like
// randomBatch, but aimed where the run structure can break: most rewrites
// and removals name an id some earlier batch added or rewrote (recent — an
// entry of a run, perhaps one merged since), and some adds revive an id that
// was removed (gone — dead in a run or in the base segment).
func churnBatch(rng *rand.Rand, model *probeModel, nextID *int32, r int, recent, gone *[]int32) []ProbeUpdate {
	pick := func(from []int32) (int32, bool) { // a live id, from the list if it has one
		for try := 0; try < 4 && len(from) > 0; try++ {
			if id := from[rng.Intn(len(from))]; model.vecs[id] != nil {
				return id, true
			}
		}
		if len(model.vecs) == 0 {
			return 0, false
		}
		live := make([]int32, 0, len(model.vecs))
		for id := range model.vecs {
			live = append(live, id)
		}
		sort.Slice(live, func(a, b int) bool { return live[a] < live[b] })
		return live[rng.Intn(len(live))], true
	}
	n := 1 + rng.Intn(6)
	ups := make([]ProbeUpdate, 0, n)
	for len(ups) < n {
		op := rng.Intn(10)
		id, ok := pick(nil)
		if op >= 4 && rng.Intn(10) < 7 {
			id, ok = pick(*recent)
		}
		switch {
		case op < 4 || !ok: // add, sometimes of a removed id
			id = *nextID
			if k := len(*gone); k > 0 && rng.Intn(3) == 0 && model.vecs[(*gone)[k-1]] == nil {
				id, *gone = (*gone)[k-1], (*gone)[:k-1]
			} else {
				*nextID++
			}
			vec := randVec(rng, r)
			ups = append(ups, ProbeUpdate{Op: OpAdd, ID: id, Vec: vec})
			model.vecs[id] = vec
			*recent = append(*recent, id)
		case op < 7: // rewrite
			vec := randVec(rng, r)
			ups = append(ups, ProbeUpdate{Op: OpUpdate, ID: id, Vec: vec})
			model.vecs[id] = vec
			*recent = append(*recent, id)
		default:
			ups = append(ups, ProbeUpdate{Op: OpRemove, ID: id})
			delete(model.vecs, id)
			*gone = append(*gone, id)
		}
	}
	return ups
}

// TestChurnReachesThreeRuns is the structural half of the root harness's
// long mutation arm (TestDifferentialMutationsLong, which compares answers):
// 200 churn batches derived copy-on-write, with Compact and MaybeCompact as
// rare as there, must at some point hold three runs at once, so that merges
// through several levels are what those sequences exercise.
func TestChurnReachesThreeRuns(t *testing.T) {
	for seq := 0; seq < 8; seq++ {
		rng := rand.New(rand.NewSource(int64(9000 + seq)))
		r := []int{3, 16}[seq%2]
		model := &probeModel{vecs: make(map[int32][]float64)}
		n0 := 60 + rng.Intn(120)
		p := matrix.New(r, n0)
		for i := 0; i < n0; i++ {
			copy(p.Vec(i), randVec(rng, r))
			model.vecs[int32(i)] = p.Vec(i)
		}
		ix, err := NewIndex(p, Options{MinBucketSize: []int{1, 30}[seq/2%2], Quantize: seq/4%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		var recent, gone []int32
		nextID, maxRuns := int32(n0), 0
		for step := 0; step < 200; step++ {
			if ix, _, err = ix.WithUpdates(churnBatch(rng, model, &nextID, r, &recent, &gone)); err != nil {
				t.Fatalf("seq %d step %d: %v", seq, step, err)
			}
			maxRuns = max(maxRuns, len(ix.segs)-1)
			switch rng.Intn(60) {
			case 0:
				ix.Compact()
			case 1, 2, 3:
				ix.MaybeCompact(1.5)
			}
		}
		if maxRuns < 3 {
			t.Errorf("seq %d never held three runs at once (%d): the merge levels were not reached", seq, maxRuns)
		}
	}
}

// TestApplyValidationAndAtomicity: a batch with any invalid op must leave
// the index untouched — ids, epoch, live set and query results.
func TestApplyValidationAndAtomicity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := matrix.New(4, 20)
	for i := 0; i < 20; i++ {
		copy(p.Vec(i), randVec(rng, 4))
	}
	ix, err := NewIndex(p, Options{MinBucketSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Apply([]ProbeUpdate{{Op: OpAdd, ID: AutoID, Vec: randVec(rng, 4)}}); err != nil {
		t.Fatal(err)
	}
	epoch, live := ix.Epoch(), ix.LiveN()
	q := matrix.New(4, 2)
	copy(q.Vec(0), randVec(rng, 4))
	copy(q.Vec(1), randVec(rng, 4))
	before, _, err := rowTopK(ix, q, 5)
	if err != nil {
		t.Fatal(err)
	}

	good := ProbeUpdate{Op: OpAdd, ID: AutoID, Vec: randVec(rng, 4)}
	bad := []struct {
		name string
		ups  []ProbeUpdate
	}{
		{"dimension mismatch", []ProbeUpdate{good, {Op: OpAdd, ID: AutoID, Vec: make([]float64, 3)}}},
		{"NaN coordinate", []ProbeUpdate{good, {Op: OpUpdate, ID: 0, Vec: []float64{1, math.NaN(), 0, 0}}}},
		{"Inf coordinate", []ProbeUpdate{good, {Op: OpAdd, ID: AutoID, Vec: []float64{1, math.Inf(1), 0, 0}}}},
		{"overflowing length", []ProbeUpdate{good, {Op: OpAdd, ID: AutoID, Vec: []float64{1e200, 1, 0, 0}}}},
		{"duplicate add", []ProbeUpdate{good, {Op: OpAdd, ID: 0, Vec: randVec(rng, 4)}}},
		{"negative id", []ProbeUpdate{good, {Op: OpAdd, ID: -7, Vec: randVec(rng, 4)}}},
		{"unknown remove", []ProbeUpdate{good, {Op: OpRemove, ID: 999}}},
		{"unknown update", []ProbeUpdate{good, {Op: OpUpdate, ID: 999, Vec: randVec(rng, 4)}}},
		{"double remove in batch", []ProbeUpdate{{Op: OpRemove, ID: 1}, {Op: OpRemove, ID: 1}}},
		{"unknown op", []ProbeUpdate{{Op: UpdateOp(9), ID: 0}}},
	}
	for _, tc := range bad {
		if _, err := ix.Apply(tc.ups); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if ix.Epoch() != epoch || ix.LiveN() != live {
			t.Fatalf("%s: state mutated by rejected batch (epoch %d→%d, live %d→%d)",
				tc.name, epoch, ix.Epoch(), live, ix.LiveN())
		}
	}
	after, _, err := rowTopK(ix, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		sortRow(before[i])
		sortRow(after[i])
		for j := range before[i] {
			if before[i][j] != after[i][j] {
				t.Fatalf("results changed after rejected batches")
			}
		}
	}
}

// TestUpdateSequenceSemantics covers the id lifecycle: add-remove-readd,
// update of an added probe, in-batch composition, and AutoID assignment.
func TestUpdateSequenceSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := matrix.New(3, 10)
	for i := 0; i < 10; i++ {
		copy(p.Vec(i), randVec(rng, 3))
	}
	ix, err := NewIndex(p, Options{MinBucketSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := ix.Apply([]ProbeUpdate{{Op: OpAdd, ID: AutoID, Vec: randVec(rng, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	if id := ids[0]; id != 10 {
		t.Fatalf("first auto id %d, want 10", id)
	}
	if _, err := ix.Apply([]ProbeUpdate{{Op: OpRemove, ID: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Apply([]ProbeUpdate{{Op: OpRemove, ID: 3}}); err == nil {
		t.Fatal("double remove accepted")
	}
	if ix.Has(3) {
		t.Fatal("Has(3) after its removal")
	}
	// Re-adding a removed base id is allowed and revives the id.
	if _, err := ix.Apply([]ProbeUpdate{{Op: OpAdd, ID: 3, Vec: randVec(rng, 3)}}); err != nil {
		t.Fatalf("re-add of removed id: %v", err)
	}
	if !ix.Has(3) {
		t.Fatal("!Has(3) after its revival")
	}
	if _, err := ix.Apply([]ProbeUpdate{{Op: OpUpdate, ID: ids[0], Vec: randVec(rng, 3)}}); err != nil {
		t.Fatalf("update of added probe: %v", err)
	}
	// One batch may add and then remove the same id.
	v := randVec(rng, 3)
	ids, err = ix.Apply([]ProbeUpdate{
		{Op: OpAdd, ID: AutoID, Vec: v},
		{Op: OpRemove, ID: 11},
	})
	if err != nil {
		t.Fatalf("add+remove batch: %v", err)
	}
	if ids[0] != 11 || ids[1] != 11 {
		t.Fatalf("batch ids %v, want [11 11]", ids)
	}
	if got := ix.LiveN(); got != 11 {
		t.Fatalf("LiveN %d, want 11", got)
	}
	want := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got := ix.LiveIDs()
	if len(got) != len(want) {
		t.Fatalf("LiveIDs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LiveIDs %v, want %v", got, want)
		}
	}
	if ix.NextID() != 12 {
		t.Fatalf("NextID %d, want 12", ix.NextID())
	}
	if ix.Has(11) {
		t.Fatal("Has(11) for the id added and removed in one batch")
	}
	if ix.Has(ix.NextID()) {
		t.Fatal("Has(NextID()) for an id never used")
	}
}

// TestCompactPreservesPretunedFreeze: a pretuned index stays pretuned
// through mutations and compaction, and still answers exactly.
func TestCompactPreservesPretunedFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := matrix.New(8, 120)
	for i := 0; i < 120; i++ {
		copy(p.Vec(i), randVec(rng, 8))
	}
	ix, err := NewIndex(p, Options{Algorithm: AlgLI, TuneByCost: true})
	if err != nil {
		t.Fatal(err)
	}
	sample := matrix.New(8, 16)
	for i := 0; i < 16; i++ {
		copy(sample.Vec(i), randVec(rng, 8))
	}
	if err := ix.Pretune(sample, Problem{K: 5}); err != nil {
		t.Fatal(err)
	}
	model := &probeModel{vecs: make(map[int32][]float64)}
	for i := 0; i < 120; i++ {
		model.vecs[int32(i)] = append([]float64(nil), p.Vec(i)...)
	}
	nextID := int32(120)
	for step := 0; step < 4; step++ {
		ups := randomBatch(rng, model, &nextID, 8)
		if _, err := ix.Apply(ups); err != nil {
			t.Fatal(err)
		}
	}
	ix.Compact()
	if !ix.Pretuned() {
		t.Fatal("compaction dropped the pretuned freeze")
	}
	tuned := false
	for _, b := range ix.Buckets() {
		if b.Tuned {
			tuned = true
		}
	}
	if !tuned {
		t.Error("no bucket re-frozen after Compact of a pretuned index")
	}
	fresh := model.freshIndex(t, 8, Options{Algorithm: AlgLI, TuneByCost: true})
	q := matrix.New(8, 3)
	for i := 0; i < 3; i++ {
		copy(q.Vec(i), randVec(rng, 8))
	}
	checkEqual(t, "pretuned-compacted", ix, fresh, q, 7)
}

// TestEmptyAfterRemoveAll: removing every probe must leave a functioning,
// empty index that can be refilled.
func TestEmptyAfterRemoveAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := matrix.New(4, 8)
	for i := 0; i < 8; i++ {
		copy(p.Vec(i), randVec(rng, 4))
	}
	ix, err := NewIndex(p, Options{MinBucketSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	ups := make([]ProbeUpdate, 8)
	for i := range ups {
		ups[i] = ProbeUpdate{Op: OpRemove, ID: int32(i)}
	}
	if _, err := ix.Apply(ups); err != nil {
		t.Fatal(err)
	}
	if ix.LiveN() != 0 {
		t.Fatalf("LiveN %d after removing all", ix.LiveN())
	}
	q := matrix.New(4, 1)
	copy(q.Vec(0), randVec(rng, 4))
	top, _, err := rowTopK(ix, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top[0]) != 0 {
		t.Fatalf("empty index returned %d entries", len(top[0]))
	}
	var ents []retrieval.Entry
	if _, err := aboveTheta(ix, q, 0.1, retrieval.Collect(&ents)); err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("empty index emitted %d entries", len(ents))
	}
	ix.Compact()
	if _, err := ix.Apply([]ProbeUpdate{{Op: OpAdd, ID: AutoID, Vec: randVec(rng, 4)}}); err != nil {
		t.Fatalf("refill after empty compact: %v", err)
	}
	if ix.LiveN() != 1 {
		t.Fatalf("LiveN %d after refill", ix.LiveN())
	}
}

// TestProbeIDOverflowRejected: the id space ends at MaxProbeID; explicit
// ids beyond it are rejected and AutoID never wraps negative.
func TestProbeIDOverflowRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := matrix.New(3, 4)
	for i := 0; i < 4; i++ {
		copy(p.Vec(i), randVec(rng, 3))
	}
	ix, err := NewIndex(p, Options{MinBucketSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Apply([]ProbeUpdate{{Op: OpAdd, ID: math.MaxInt32, Vec: randVec(rng, 3)}}); err == nil {
		t.Fatal("id MaxInt32 accepted")
	}
	if _, err := ix.Apply([]ProbeUpdate{{Op: OpAdd, ID: MaxProbeID, Vec: randVec(rng, 3)}}); err != nil {
		t.Fatalf("id MaxProbeID rejected: %v", err)
	}
	if _, err := ix.Apply([]ProbeUpdate{{Op: OpAdd, ID: AutoID, Vec: randVec(rng, 3)}}); err == nil {
		t.Fatal("AutoID add beyond MaxProbeID accepted")
	}
	for _, id := range ix.LiveIDs() {
		if id < 0 {
			t.Fatalf("negative live id %d", id)
		}
	}
	if _, err := NewIndexWithIDs(p, []int32{0, 1, 2, math.MaxInt32}, Options{}); err == nil {
		t.Fatal("NewIndexWithIDs accepted id MaxInt32")
	}
}

// find locates every probe, and its bucket row is the raw vector.
func TestProbeVecReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	p := genMatrix(rng, 120, 7, 1.0, 1, false, 2, 5)
	ix, _ := NewIndex(p, testOptions(AlgLI))
	for id := 0; id < p.N(); id++ {
		_, bi, lid, ok := ix.find(int32(id))
		if !ok {
			t.Fatalf("probe %d missing from location lookup", id)
		}
		if got, want := ix.scan[bi].row(lid), p.Vec(id); !slices.Equal(got, want) {
			t.Fatalf("probe %d: row %v, vector %v", id, got, want)
		}
	}
}
