package server

import (
	"bytes"
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lemp"
	"lemp/internal/naive"
	"lemp/internal/vecmath"
)

// clusteredProbe builds a catalog with a few directional clusters, varied
// lengths, and a sprinkle of zero vectors — the regime cluster placement is
// built for, plus its degenerate cases.
func clusteredProbe(rng *rand.Rand, r, n int) *lemp.Matrix {
	nCenters := 2 + rng.Intn(3)
	centers := make([][]float64, nCenters)
	for c := range centers {
		v := make([]float64, r)
		for f := range v {
			v[f] = rng.NormFloat64()
		}
		vecmath.Normalize(v, v)
		centers[c] = v
	}
	p := lemp.NewMatrix(r, n)
	for i := 0; i < n; i++ {
		if rng.Intn(12) == 0 {
			continue // zero vector
		}
		v := p.Vec(i)
		c := centers[rng.Intn(nCenters)]
		for f := range v {
			v[f] = c[f] + 0.25*rng.NormFloat64()
		}
		scale := 0.5 + 2*rng.Float64()
		norm := vecmath.Norm(v)
		if norm > 0 {
			vecmath.Scale(v, v, scale/norm)
		}
	}
	return p
}

// randomOps builds one mutation batch over the currently live ids: removes
// and rewrites of random live probes plus AutoID adds (occasionally zero
// vectors). live is updated to reflect the batch.
func randomOps(rng *rand.Rand, r int, live *[]int32) []lemp.ProbeUpdate {
	var ops []lemp.ProbeUpdate
	nOps := 1 + rng.Intn(6)
	for o := 0; o < nOps; o++ {
		switch roll := rng.Intn(4); {
		case roll == 0 && len(*live) > 4:
			i := rng.Intn(len(*live))
			ops = append(ops, lemp.ProbeUpdate{Op: lemp.OpRemove, ID: (*live)[i]})
			*live = append((*live)[:i], (*live)[i+1:]...)
		case roll == 1 && len(*live) > 0:
			i := rng.Intn(len(*live))
			ops = append(ops, lemp.ProbeUpdate{Op: lemp.OpUpdate, ID: (*live)[i], Vec: randVec(rng, r)})
		default:
			ops = append(ops, lemp.ProbeUpdate{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: randVec(rng, r)})
		}
	}
	return ops
}

func randVec(rng *rand.Rand, r int) []float64 {
	v := make([]float64, r)
	if rng.Intn(9) == 0 {
		return v // zero vector
	}
	for f := range v {
		v[f] = rng.NormFloat64()
	}
	return v
}

// compareRows asserts two grouped Above-θ result sets are byte-identical.
func compareRows(t *testing.T, ctx string, got, want [][]lemp.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d entries, want %d\n got %+v\nwant %+v",
				ctx, i, len(got[i]), len(want[i]), got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: row %d entry %d: got %+v, want %+v", ctx, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// compareTopKValues asserts two top-k result sets are equal, ids and values
// (±0 alike): ties go to the smaller id in a single index and in a shard
// merge alike.
func compareTopKValues(t *testing.T, ctx string, got, want [][]lemp.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: row %d: got %v, want %v", ctx, i, got[i], want[i])
		}
	}
}

// TestClusterPlacedDifferential is the placement differential harness:
// across randomized mutation/query sequences and every bucket algorithm, a
// cluster-placed shard set must answer Above-θ byte-identically, and
// Row-Top-k with the same values, as a single unsharded reference index
// mirroring every mutation. Sequences include zero probes, zero queries,
// empty results and cost-routed adds.
func TestClusterPlacedDifferential(t *testing.T) {
	algos := []lemp.Algorithm{
		lemp.AlgorithmLI, lemp.AlgorithmL, lemp.AlgorithmC, lemp.AlgorithmI,
		lemp.AlgorithmLC,
	}
	sequences := 1100
	if testing.Short() {
		sequences = 80
	}
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(9000 + seq)))
		opts := lemp.Options{
			Algorithm:     algos[seq%len(algos)],
			Parallelism:   1,
			MinBucketSize: 4,
			SampleQueries: 4,
			TuneByCost:    true,
			Seed:          int64(seq + 1),
		}
		r := 4 + rng.Intn(9)   // 4..12
		n := 12 + rng.Intn(41) // 12..52
		p := clusteredProbe(rng, r, n)
		nShards := 2 + rng.Intn(3)
		sh, err := NewShardedPlaced(p.Clone(), nil, nShards, opts, PlaceCluster)
		if err != nil {
			t.Fatalf("seq %d: building sharded: %v", seq, err)
		}
		ref, err := lemp.New(p.Clone(), opts)
		if err != nil {
			t.Fatalf("seq %d: building reference: %v", seq, err)
		}
		live := ref.LiveIDs()

		rounds := 1 + rng.Intn(3)
		for round := 0; round < rounds; round++ {
			if round > 0 { // round 0 queries the freshly built set
				ops := randomOps(rng, r, &live)
				res, err := sh.Update(ops, 0.25)
				if err != nil {
					t.Fatalf("seq %d round %d: sharded update: %v", seq, round, err)
				}
				// Mirror into the reference with the ids the shard set
				// assigned, so both catalogs stay identical.
				refOps := append([]lemp.ProbeUpdate(nil), ops...)
				for i := range refOps {
					if refOps[i].Op == lemp.OpAdd {
						refOps[i].ID = res.IDs[i]
						live = append(live, res.IDs[i])
					}
				}
				if ref, _, err = ref.WithUpdates(refOps); err != nil {
					t.Fatalf("seq %d round %d: reference update: %v", seq, round, err)
				}
			}

			m := 1 + rng.Intn(4)
			q := lemp.NewMatrix(r, m)
			for i := 0; i < m; i++ {
				switch rng.Intn(5) {
				case 0: // random direction
					copy(q.Vec(i), randVec(rng, r))
				case 1: // zero query
				default: // probe-like: near a live probe's direction
					copy(q.Vec(i), clusteredProbe(rng, r, 1).Vec(0))
				}
			}
			theta := 0.05 + 2.5*rng.Float64()

			got, _, err := sh.CurrentView().AboveThetaCtx(context.Background(), q, theta)
			if err != nil {
				t.Fatalf("seq %d round %d: sharded above: %v", seq, round, err)
			}

			refRes, err := ref.Retrieve(context.Background(), q, lemp.AboveTheta(theta))
			if err != nil {
				t.Fatalf("seq %d round %d: reference above: %v", seq, round, err)
			}
			entries := refRes.Entries
			lemp.SortEntries(entries)
			want := make([][]lemp.Entry, m)
			for _, e := range entries {
				want[e.Query] = append(want[e.Query], e)
			}
			compareRows(t, "above vs reference", got, want)

			k := 1 + rng.Intn(4)
			gotTop, _, err := sh.CurrentView().TopKCtx(context.Background(), q, k)
			if err != nil {
				t.Fatalf("seq %d round %d: sharded topk: %v", seq, round, err)
			}
			refRes, err = ref.Retrieve(context.Background(), q, lemp.TopK(k))
			if err != nil {
				t.Fatalf("seq %d round %d: reference topk: %v", seq, round, err)
			}
			compareTopKValues(t, "topk vs reference", gotTop, refRes.TopK)
		}
	}
}

// TestPlacementAddRouting: under every placement, each add must go to the
// shard with the least estimated scan cost, counting the adds the batch
// already placed (a new vector weighs its length; a zero vector weighs
// nothing). The shard the rule picks is the one whose index then holds the
// id.
func TestPlacementAddRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const r, n = 6, 120
	p := clusteredProbe(rng, r, n)
	opts := lemp.Options{MinBucketSize: 6, Parallelism: 1}
	for _, kind := range []Placement{PlaceRange, PlaceCluster} {
		sh, err := NewShardedPlaced(p.Clone(), nil, 3, opts, kind)
		if err != nil {
			t.Fatal(err)
		}
		// The batch opens with an add long enough to lift the cheapest shard
		// past the dearest, so the rule must move on within the batch.
		costs := append([]float64(nil), sh.costs...)
		spread := slices.Max(costs) - slices.Min(costs)
		long := randVec(rng, r)
		for vecmath.Norm(long) == 0 {
			long = randVec(rng, r)
		}
		vecmath.Scale(long, long, (spread+1)/vecmath.Norm(long))
		vecs := [][]float64{long, make([]float64, r), randVec(rng, r), randVec(rng, r), make([]float64, r)}
		ups := make([]lemp.ProbeUpdate, len(vecs))
		want := make([]int, len(vecs))
		for i, v := range vecs {
			ups[i] = lemp.ProbeUpdate{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: v}
			for j := range costs {
				if costs[j] < costs[want[i]] {
					want[i] = j
				}
			}
			costs[want[i]] += vecmath.Norm(v)
		}
		if want[0] == want[1] {
			t.Fatalf("%s: the long add did not move the cheapest shard (costs %v)", kind, sh.costs)
		}
		res, err := sh.Update(ups, -1)
		if err != nil {
			t.Fatal(err)
		}
		ixs := sh.Indexes()
		for i, id := range res.IDs {
			if !ixs[want[i]].Has(id) {
				t.Errorf("%s: add %d (length %.3g) is not live on shard %d", kind, i, vecmath.Norm(vecs[i]), want[i])
			}
		}
	}
}

// TestParsePlacement: the two placements parse, "" is range, and any other
// name fails naming both.
func TestParsePlacement(t *testing.T) {
	for name, want := range map[string]Placement{"": PlaceRange, "range": PlaceRange, "cluster": PlaceCluster} {
		if got, err := ParsePlacement(name); err != nil || got != want {
			t.Errorf("ParsePlacement(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	for _, name := range []string{"cost", "Range", "spiral"} {
		if _, err := ParsePlacement(name); err == nil || !strings.Contains(err.Error(), "range") || !strings.Contains(err.Error(), "cluster") {
			t.Errorf("ParsePlacement(%q): error %v, want one naming range and cluster", name, err)
		}
	}
}

// liveSet gathers a shard set's live probes and their ids, shard by shard.
func liveSet(sh *Sharded) (*lemp.Matrix, []int32) {
	var data []float64
	var ids []int32
	for _, ix := range sh.Indexes() {
		p, pids := ix.LiveProbes()
		data = append(data, p.Data()...)
		ids = append(ids, pids...)
	}
	p, _ := lemp.MatrixFromData(sh.R(), len(ids), data)
	return p, ids
}

// answersLikeNaive checks a shard set against internal/naive over the live
// probe set p (column col named ids[col]) in ascending-id order: the same
// Row-Top-k rows and Above-θ entries, ids and values, at θ equal to the
// 40th largest product.
func answersLikeNaive(t *testing.T, what string, sh *Sharded, p *lemp.Matrix, ids []int32, q *lemp.Matrix) {
	t.Helper()
	cols := make([]int, len(ids))
	for c := range cols {
		cols[c] = c
	}
	slices.SortFunc(cols, func(a, b int) int { return cmp.Compare(ids[a], ids[b]) })
	sorted := lemp.NewMatrix(p.R(), len(cols))
	for j, c := range cols {
		copy(sorted.Vec(j), p.Vec(c))
	}
	byID := func(e lemp.Entry) lemp.Entry { e.Probe = int(ids[cols[e.Probe]]); return e }
	v := sh.CurrentView()
	wantTop, _ := naive.RowTopK(q, sorted, 4)
	for _, row := range wantTop {
		for j := range row {
			row[j] = byID(row[j])
		}
	}
	gotTop, _, err := v.TopKCtx(context.Background(), q, 4)
	if err != nil {
		t.Fatal(err)
	}
	compareTopKValues(t, what+": Row-Top-k against naive", gotTop, wantTop)
	var all []float64
	naive.AboveTheta(q, sorted, math.SmallestNonzeroFloat64, func(e lemp.Entry) { all = append(all, e.Value) })
	slices.SortFunc(all, func(a, b float64) int { return cmp.Compare(b, a) })
	theta := all[min(40, len(all))-1]
	want := make([][]lemp.Entry, q.N())
	naive.AboveTheta(q, sorted, theta, func(e lemp.Entry) { want[e.Query] = append(want[e.Query], byID(e)) })
	got, _, err := v.AboveThetaCtx(context.Background(), q, theta)
	if err != nil {
		t.Fatal(err)
	}
	compareTopKValues(t, what+": Above-θ against naive", got, want)
}

// TestClusterSnapshotRoundTrip: a cluster-placed server, mutated, then
// snapshotted, restores as-is (one shard per snapshot), re-placed into fewer
// shards, and re-placed at the same count under RebalanceOnLoad, and every
// restore answers as internal/naive does over the live probe set. No
// snapshot carries a PLMT section.
func TestClusterSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const r, n = 6, 90
	p := clusteredProbe(rng, r, n)
	cfg := Config{Shards: 3, Placement: "cluster", Options: lemp.Options{MinBucketSize: 6, Parallelism: 1}}
	srv, err := New(p.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, live := liveSet(srv.Sharded())
	for round := 0; round < 4; round++ {
		ops := randomOps(rng, r, &live)
		res, err := srv.Sharded().Update(ops, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			if op.Op == lemp.OpAdd {
				live = append(live, res.IDs[i])
			}
		}
	}
	liveP, ids := liveSet(srv.Sharded())
	q := lemp.NewMatrix(r, 5)
	for i := 0; i < 5; i++ {
		for vecmath.Norm(q.Vec(i)) == 0 { // probe-like, and not a zero vector
			copy(q.Vec(i), clusteredProbe(rng, r, 1).Vec(0))
		}
	}
	answersLikeNaive(t, "saving server", srv.Sharded(), liveP, ids, q)

	bufs := writeShardSnapshots(t, srv)
	for i, b := range bufs {
		if bytes.Contains(b.Bytes(), []byte("PLMT")) {
			t.Fatalf("shard %d snapshot carries a PLMT section", i)
		}
	}
	for _, tc := range []struct {
		what   string
		cfg    Config
		shards int
	}{
		{"restored as-is", Config{}, 3},
		{"re-placed into 2 shards", Config{Shards: 2, Placement: "cluster"}, 2},
		{"re-placed under RebalanceOnLoad", Config{Placement: "cluster", RebalanceOnLoad: true}, 3},
	} {
		tc.cfg.Options.Parallelism = 1
		restored, err := NewFromSnapshot(snapshotReaders(bufs), tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		if got := restored.Sharded().NumShards(); got != tc.shards {
			t.Fatalf("%s: %d shards, want %d", tc.what, got, tc.shards)
		}
		answersLikeNaive(t, tc.what, restored.Sharded(), liveP, ids, q)
	}
}

// TestRestoreKeepsPartition: a restore that does not re-place keeps the
// saving server's partition shard by shard, whatever placement built it —
// here cluster, restored under a Config whose placement defaults to range.
func TestRestoreKeepsPartition(t *testing.T) {
	p := clusteredProbe(rand.New(rand.NewSource(73)), 6, 90)
	srv, err := New(p, Config{Shards: 3, Placement: "cluster", Options: lemp.Options{MinBucketSize: 6, Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewFromSnapshot(snapshotReaders(writeShardSnapshots(t, srv)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, got := srv.Sharded().Indexes(), restored.Sharded().Indexes()
	if len(got) != len(want) {
		t.Fatalf("restored %d shards, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].LiveIDs(), want[i].LiveIDs()) {
			t.Errorf("shard %d holds ids %v, the saving server's %v", i, got[i].LiveIDs(), want[i].LiveIDs())
		}
	}
}
