package lemp_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lemp"
	"lemp/internal/data"
	"lemp/internal/snapshot"
)

// sortTopRow orders one top-k row canonically for comparison.
func sortTopRow(row []lemp.Entry) {
	sort.Slice(row, func(a, b int) bool {
		if row[a].Value != row[b].Value {
			return row[a].Value > row[b].Value
		}
		return row[a].Probe < row[b].Probe
	})
}

// mutateSmoke derives from ix, in two batches, a deterministic mix of adds,
// removes and updates.
func mutateSmoke(t *testing.T, ix *lemp.Index, r int) *lemp.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	vec := func() []float64 {
		v := make([]float64, r)
		for f := range v {
			v[f] = rng.NormFloat64()
		}
		return v
	}
	ups := []lemp.ProbeUpdate{
		{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: vec()},
		{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: vec()},
		{Op: lemp.OpRemove, ID: 3},
		{Op: lemp.OpRemove, ID: 250},
		{Op: lemp.OpUpdate, ID: 10, Vec: vec()},
		{Op: lemp.OpUpdate, ID: 501, Vec: vec()},
	}
	ix, _, err := ix.WithUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	ix, _, err = ix.WithUpdates([]lemp.ProbeUpdate{
		{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: vec()},
		{Op: lemp.OpRemove, ID: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestMutatedSnapshotRoundTrip: a snapshot of a mutated index (compacted
// on save) must load into an index with byte-identical results, preserved
// external ids, and a continued epoch / id sequence.
func TestMutatedSnapshotRoundTrip(t *testing.T) {
	q, p := data.Smoke.Generate()
	ix, err := lemp.New(p, lemp.Options{Algorithm: lemp.AlgorithmLI, TuneByCost: true})
	if err != nil {
		t.Fatal(err)
	}
	ix = mutateSmoke(t, ix, p.R())

	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := lemp.LoadIndex(bytes.NewReader(buf.Bytes()), lemp.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if got, want := loaded.N(), ix.N(); got != want {
		t.Fatalf("loaded N %d, want %d", got, want)
	}
	if got, want := loaded.Epoch(), ix.Epoch(); got != want {
		t.Fatalf("loaded epoch %d, want %d", got, want)
	}
	if got, want := loaded.NextID(), ix.NextID(); got != want {
		t.Fatalf("loaded NextID %d, want %d", got, want)
	}
	gotIDs, wantIDs := loaded.LiveIDs(), ix.LiveIDs()
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("loaded %d live ids, want %d", len(gotIDs), len(wantIDs))
	}
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("live id %d: got %d, want %d", i, gotIDs[i], wantIDs[i])
		}
	}

	const k = 9
	wantTop, _, err := rowTopK(ix, q, k)
	if err != nil {
		t.Fatal(err)
	}
	gotTop, _, err := rowTopK(loaded, q, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantTop {
		sortTopRow(wantTop[i])
		sortTopRow(gotTop[i])
		if len(gotTop[i]) != len(wantTop[i]) {
			t.Fatalf("query %d: %d entries, want %d", i, len(gotTop[i]), len(wantTop[i]))
		}
		for j := range wantTop[i] {
			if gotTop[i][j].Probe != wantTop[i][j].Probe || gotTop[i][j].Value != wantTop[i][j].Value {
				t.Fatalf("query %d entry %d: got %+v, want %+v", i, j, gotTop[i][j], wantTop[i][j])
			}
		}
	}
	theta := 1.0
	want, _, err := aboveTheta(ix, q, theta)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := aboveTheta(loaded, q, theta)
	if err != nil {
		t.Fatal(err)
	}
	lemp.SortEntries(want)
	lemp.SortEntries(got)
	if len(got) != len(want) {
		t.Fatalf("above-θ: %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("above-θ entry %d: got %+v, want %+v", i, got[i], want[i])
		}
	}

	// The loaded index must keep mutating correctly from where the
	// original left off.
	loaded, ids, err := loaded.WithUpdates([]lemp.ProbeUpdate{{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: make([]float64, p.R())}})
	if err != nil {
		t.Fatal(err)
	}
	if id := ids[0]; id != ix.NextID() {
		t.Fatalf("post-load add assigned id %d, want %d", id, ix.NextID())
	}
	if loaded.Epoch() != ix.Epoch()+1 {
		t.Fatalf("post-load epoch %d, want %d", loaded.Epoch(), ix.Epoch()+1)
	}
}

// TestUnmutatedSnapshotCarriesNoIDState: an index that never saw an update
// writes the current format version and no external-id state — its
// sections are OPTS, PROB, PIDS and END, no MUTA, and PIDS, which the
// format always writes to name PROB's columns in scan order, holds the
// column numbers of the matrix the index was built from, 0..n-1, each once.
func TestUnmutatedSnapshotCarriesNoIDState(t *testing.T) {
	_, p := data.Smoke.Generate()
	ix, err := lemp.New(p, lemp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if got := binary.LittleEndian.Uint32(raw[8:12]); got != snapshot.Version {
		t.Fatalf("unmutated snapshot has version %d, want %d", got, snapshot.Version)
	}
	var tags []string
	var ids []int
	for off := 16; off < len(raw); off += 12 + int(binary.LittleEndian.Uint64(raw[off+4:])) + 4 {
		tags = append(tags, string(raw[off:off+4]))
		if tags[len(tags)-1] == "PIDS" {
			payload := raw[off+12 : off+12+int(binary.LittleEndian.Uint64(raw[off+4:]))]
			for at := 0; at < len(payload); at += 4 {
				ids = append(ids, int(binary.LittleEndian.Uint32(payload[at:])))
			}
		}
	}
	if want := []string{"OPTS", "PROB", "PIDS", "END\x00"}; !slices.Equal(tags, want) {
		t.Fatalf("unmutated snapshot sections %q, want %q", tags, want)
	}
	slices.Sort(ids)
	for i, id := range ids {
		if id != i || len(ids) != p.N() {
			t.Fatalf("PIDS holds %d ids, sorted %v…, want the column numbers 0..%d", len(ids), ids[:min(len(ids), 8)], p.N()-1)
		}
	}
}

// TestAcceptedProbesRoundTrip: every index the library accepts restores
// from its own snapshot. One rule decides what it accepts, at build and at
// update alike: finite coordinates and a finite length. A NaN coordinate,
// and finite coordinates whose length overflows (1e200 squares to +Inf),
// are refused by New and by WithUpdates as an AutoID add, an explicit-id
// add and a rewrite; coordinates
// as large as 1e150, whose length is finite, are accepted, and the index
// holding them round-trips through WriteSnapshot and LoadIndex.
func TestAcceptedProbesRoundTrip(t *testing.T) {
	const r = 4
	rng := rand.New(rand.NewSource(36))
	p := lemp.NewMatrix(r, 40)
	for i := range p.N() {
		for f := range p.Vec(i) {
			p.Vec(i)[f] = rng.NormFloat64()
		}
	}
	bad := map[string][]float64{
		"NaN coordinate":  {1, math.NaN(), 0, 0},
		"overflow length": {1e200, 1, 0, 0},
	}
	for name, vec := range bad {
		q := p.Clone()
		copy(q.Vec(7), vec)
		if _, err := lemp.New(q, lemp.Options{}); err == nil {
			t.Errorf("New accepted a probe with a %s", name)
		}
	}

	ix, err := lemp.New(p.Clone(), lemp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, vec := range bad {
		if _, _, err := ix.WithUpdates([]lemp.ProbeUpdate{{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: vec}}); err == nil {
			t.Errorf("an AutoID add with a %s was accepted", name)
		}
		if _, _, err := ix.WithUpdates([]lemp.ProbeUpdate{{Op: lemp.OpUpdate, ID: 3, Vec: vec}}); err == nil {
			t.Errorf("an update with a %s was accepted", name)
		}
		if _, _, err := ix.WithUpdates([]lemp.ProbeUpdate{{Op: lemp.OpAdd, ID: ix.NextID(), Vec: vec}}); err == nil {
			t.Errorf("an explicit-id add with a %s was accepted", name)
		}
	}
	if ix.Epoch() != 0 {
		t.Fatalf("refused updates moved the epoch to %d", ix.Epoch())
	}

	huge := []float64{1e150, -1e150, 1, 0}
	ix, _, err = ix.WithUpdates([]lemp.ProbeUpdate{{Op: lemp.OpUpdate, ID: 5, Vec: huge}})
	if err != nil {
		t.Fatalf("a finite-length probe was refused: %v", err)
	}
	big := p.Clone()
	copy(big.Vec(9), huge)
	built, err := lemp.New(big, lemp.Options{})
	if err != nil {
		t.Fatalf("a finite-length probe was refused at build: %v", err)
	}
	for _, ix := range []*lemp.Index{ix, built} {
		var buf bytes.Buffer
		if err := ix.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := lemp.LoadIndex(&buf, lemp.LoadOptions{}); err != nil {
			t.Fatalf("an accepted index does not restore from its own snapshot: %v", err)
		}
	}
}
