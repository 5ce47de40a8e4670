package server

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lemp"
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

// compareTopKValues asserts two top-k result sets rank the same values.
// Probe identity is only required while values are strictly decreasing:
// among tied values (notably 0, from zero probes or zero queries) the
// winner of the k-th slot is an arbitrary choice the shard merge is free
// to make differently from a single index.
func compareTopKValues(t *testing.T, ctx string, got, want [][]lemp.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d entries, want %d", ctx, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j].Value != want[i][j].Value {
				t.Fatalf("%s: row %d rank %d: got value %v (probe %d), want %v (probe %d)",
					ctx, i, j, got[i][j].Value, got[i][j].Probe, want[i][j].Value, want[i][j].Probe)
			}
			// Value 0 can also tie with candidates outside the returned
			// set (every zero probe scores 0), so it never pins a probe.
			tied := want[i][j].Value == 0 ||
				(j > 0 && want[i][j-1].Value == want[i][j].Value) ||
				(j+1 < len(want[i]) && want[i][j+1].Value == want[i][j].Value)
			if !tied && got[i][j].Probe != want[i][j].Probe {
				t.Fatalf("%s: row %d rank %d: got probe %d, want %d (value %v)",
					ctx, i, j, got[i][j].Probe, want[i][j].Probe, want[i][j].Value)
			}
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
				if _, err := ref.ApplyUpdates(refOps); err != nil {
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

// TestCostPlacementBalancesSkew: on a length-skewed catalog laid out in
// decreasing length order — the worst case for equal-count contiguous
// splits — cost placement must produce a lower max/mean per-shard estimated
// scan cost than range placement.
func TestCostPlacementBalancesSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const r, n, shards = 8, 600, 4
	p := lemp.NewMatrix(r, n)
	for i := 0; i < n; i++ {
		v := p.Vec(i)
		for f := range v {
			v[f] = rng.NormFloat64()
		}
		// Zipf-ish length skew, decreasing with the column index.
		norm := vecmath.Norm(v)
		vecmath.Scale(v, v, 20.0/(norm*math.Pow(float64(i+1), 0.8)))
	}
	opts := lemp.Options{MinBucketSize: 10, Parallelism: 1}
	rangeSh, err := NewShardedPlaced(p.Clone(), nil, shards, opts, PlaceRange)
	if err != nil {
		t.Fatal(err)
	}
	costSh, err := NewShardedPlaced(p.Clone(), nil, shards, opts, PlaceCost)
	if err != nil {
		t.Fatal(err)
	}
	rs, cs := rangeSh.CostSkew(), costSh.CostSkew()
	if cs >= rs {
		t.Fatalf("cost placement skew %.3f not below range skew %.3f", cs, rs)
	}
	if cs > 1.5 {
		t.Fatalf("cost placement skew %.3f still badly unbalanced", cs)
	}
	// Both placements must serve identical results.
	q := lemp.NewMatrix(r, 3)
	for i := 0; i < 3; i++ {
		copy(q.Vec(i), randVec(rng, r))
	}
	a, _, err := rangeSh.CurrentView().AboveThetaCtx(context.Background(), q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := costSh.CurrentView().AboveThetaCtx(context.Background(), q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	compareRows(t, "range vs cost", a, b)
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
	for _, kind := range []PlacementKind{PlaceRange, PlaceCost, PlaceCluster} {
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

// TestClusterSnapshotRoundTrip: a cluster-placed server snapshotted and
// restored must adopt its placement kind and answer identically to the
// original.
func TestClusterSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const r, n = 6, 90
	p := clusteredProbe(rng, r, n)
	cfg := Config{Shards: 3, Placement: "cluster", Options: lemp.Options{MinBucketSize: 6, Parallelism: 1}}
	srv, err := New(p.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	snaps := snapshotReaders(writeShardSnapshots(t, srv))
	restored, err := NewFromSnapshot(snaps, Config{Options: lemp.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Sharded().Placement(); got != PlaceCluster {
		t.Fatalf("restored placement %q, want %q", got, PlaceCluster)
	}
	q := lemp.NewMatrix(r, 5)
	for i := 0; i < 5; i++ {
		copy(q.Vec(i), clusteredProbe(rng, r, 1).Vec(0))
	}
	want, _, err := srv.Sharded().CurrentView().AboveThetaCtx(context.Background(), q, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := restored.Sharded().CurrentView().AboveThetaCtx(context.Background(), q, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	compareRows(t, "restored vs original", got, want)
	wantTop, _, err := srv.Sharded().CurrentView().TopKCtx(context.Background(), q, 4)
	if err != nil {
		t.Fatal(err)
	}
	gotTop, _, err := restored.Sharded().CurrentView().TopKCtx(context.Background(), q, 4)
	if err != nil {
		t.Fatal(err)
	}
	compareRows(t, "restored top-k vs original", gotTop, wantTop)

	// A shard-count override must re-place through the placement interface.
	resharded, err := NewFromSnapshot(snapshotReaders(writeShardSnapshots(t, srv)), Config{Shards: 2, Options: lemp.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if resharded.Sharded().NumShards() != 2 {
		t.Fatalf("re-sharded to %d shards, want 2", resharded.Sharded().NumShards())
	}
	got2, _, err := resharded.Sharded().CurrentView().AboveThetaCtx(context.Background(), q, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	compareRows(t, "re-sharded vs original", got2, want)
}
