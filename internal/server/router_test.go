package server

import (
	"math/rand"
	"testing"

	"lemp"
)

func TestRouterRangesAndExceptions(t *testing.T) {
	rt := newRouter([][]int32{{0, 1, 2, 3}, {4, 5, 6}, {10, 11, 20}})
	if got := rt.ranges(); got != 4 {
		t.Fatalf("ranges() = %d, want 4 (three contiguous blocks, one split)", got)
	}
	for id, want := range map[int32]int{0: 0, 3: 0, 4: 1, 6: 1, 10: 2, 11: 2, 20: 2} {
		sh, ok := rt.route(id)
		if !ok || sh != want {
			t.Fatalf("route(%d) = (%d, %v), want (%d, true)", id, sh, ok, want)
		}
	}
	for _, id := range []int32{7, 9, 12, 19, 21, 100} {
		if _, ok := rt.route(id); ok {
			t.Fatalf("route(%d) found a shard for a dead id", id)
		}
	}

	// Removal inside a run tombstones; re-adding to the same shard drops
	// the tombstone instead of accumulating an exception.
	rt.remove(5)
	if _, ok := rt.route(5); ok {
		t.Fatal("removed id still routes")
	}
	if rt.exceptions() != 1 {
		t.Fatalf("exceptions() = %d after one in-run removal, want 1", rt.exceptions())
	}
	rt.set(5, 1)
	if sh, ok := rt.route(5); !ok || sh != 1 {
		t.Fatal("re-added id does not route")
	}
	if rt.exceptions() != 0 {
		t.Fatalf("exceptions() = %d after restoring the run's word, want 0", rt.exceptions())
	}

	// An add outside every run is an exception; removing it again clears it.
	rt.set(50, 2)
	if sh, ok := rt.route(50); !ok || sh != 2 {
		t.Fatal("out-of-run add does not route")
	}
	rt.remove(50)
	if _, ok := rt.route(50); ok {
		t.Fatal("removed out-of-run id still routes")
	}
	if rt.exceptions() != 0 {
		t.Fatalf("exceptions() = %d, want 0", rt.exceptions())
	}
}

func TestRouterOverlapDetection(t *testing.T) {
	rt := newRouter([][]int32{{0, 1, 2}, {2, 3}})
	if _, _, id, overlap := rt.overlap(); !overlap || id != 2 {
		t.Fatalf("overlap() = id %d, %v; want id 2, true", id, overlap)
	}
	if _, _, _, overlap := newRouter([][]int32{{0, 1}, {2, 3}}).overlap(); overlap {
		t.Fatal("disjoint runs reported as overlapping")
	}
}

// TestRouterMemoryRegression is the satellite's guard: a freshly built
// sharded server over n contiguous probes must hold O(shards) routing
// state — not one map entry per live probe — and post-build drift must
// cost one exception per affected id, not more.
func TestRouterMemoryRegression(t *testing.T) {
	const n, shards = 20000, 4
	rng := rand.New(rand.NewSource(3))
	probe := lemp.NewMatrix(4, n)
	for i := 0; i < n; i++ {
		v := probe.Vec(i)
		for f := range v {
			v[f] = rng.NormFloat64()
		}
	}
	sh, err := NewShardedPlaced(probe, nil, shards, lemp.Options{}, PlaceRange)
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.router.ranges(); got != shards {
		t.Fatalf("fresh contiguous build: %d ranges, want exactly %d (one per shard)", got, shards)
	}
	if got := sh.router.exceptions(); got != 0 {
		t.Fatalf("fresh build: %d exceptions, want 0", got)
	}

	// Routing state after updates is bounded by the number of drifted ids,
	// never by n.
	ups := []lemp.ProbeUpdate{
		{Op: lemp.OpRemove, ID: 7},
		{Op: lemp.OpRemove, ID: 9000},
		{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: probe.Vec(0)},
		{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: probe.Vec(1)},
	}
	if _, err := sh.Update(ups, -1); err != nil {
		t.Fatal(err)
	}
	if got := sh.router.ranges(); got != shards {
		t.Fatalf("ranges grew to %d after updates", got)
	}
	if got := sh.router.exceptions(); got > len(ups) {
		t.Fatalf("%d exceptions after %d ops", got, len(ups))
	}

	// The routed queries still answer correctly: drift is addressable.
	if _, ok := sh.router.route(7); ok {
		t.Fatal("removed probe still routes")
	}
	if sharded, ok := sh.router.route(9000); ok {
		t.Fatalf("removed probe still routes to %d", sharded)
	}
}
