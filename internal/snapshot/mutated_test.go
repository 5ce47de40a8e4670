package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lemp/internal/core"
	"lemp/internal/matrix"
)

// mutatedSnapshotSHA256 is the SHA-256 of the snapshot
// TestMutatedSnapshotBytesPinned writes. Change it only with a format change
// that says why the bytes of an unchanged index moved. Format version 6 moved
// them: BUKT no longer stores each member's length and direction, which the
// loader re-derives from PROB. It pins the index built with algorithm LI;
// lengthSnapshotSHA256 pins the same index built with algorithm L, whose
// file differs from it only in the OPTS algorithm code.
const (
	mutatedSnapshotSHA256 = "a415938fc2f368fee36444df1ed2bc07624ede2004a84f6fe137248a9413a41a"
	lengthSnapshotSHA256  = "ca0b1357844ebb6283685fafc081909ca08037b2b3ca680354ac139635d1ea5b"
)

// mutatedIndex builds the index TestMutatedSnapshotBytesPinned pins, under
// algorithm alg: built over shuffled, sparse caller ids, neither pretuned
// nor quantized, answering
// no retrieval (no sorted lists, no lazy sidecars), so its snapshot bytes
// depend on the mutation sequence alone. Its second batch lands beside the
// first batch's run without merging it: the export compacts a tombstoned base
// and two runs.
func mutatedIndex(t testing.TB, alg core.Algorithm) *core.Index {
	t.Helper()
	const r, n = 6, 120
	rng := rand.New(rand.NewSource(26))
	vec := func() []float64 {
		v := make([]float64, r)
		scale := math.Exp(0.9 * rng.NormFloat64())
		for f := range v {
			v[f] = scale * rng.NormFloat64()
		}
		return v
	}
	p := matrix.New(r, n)
	ids := make([]int32, n)
	for col, k := range rng.Perm(n) {
		copy(p.Vec(col), vec())
		ids[col] = int32(3*k + 1)
	}
	ix, err := core.NewIndexWithIDs(p, ids, core.Options{Algorithm: alg, MinBucketSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(ups []core.ProbeUpdate) []int32 {
		t.Helper()
		got, err := ix.Apply(ups)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	deltaBuckets := func() []core.BucketInfo {
		var out []core.BucketInfo
		for _, b := range ix.Buckets() {
			if b.Delta {
				out = append(out, b)
			}
		}
		return out
	}

	// Batch one: forty adds, ten base ids removed and ten rewritten.
	var first []core.ProbeUpdate
	for i := 0; i < 40; i++ {
		first = append(first, core.ProbeUpdate{Op: core.OpAdd, ID: core.AutoID, Vec: vec()})
	}
	for _, id := range ids[:10] {
		first = append(first, core.ProbeUpdate{Op: core.OpRemove, ID: id})
	}
	for _, id := range ids[10:20] {
		first = append(first, core.ProbeUpdate{Op: core.OpUpdate, ID: id, Vec: vec()})
	}
	added := apply(first)[:40]
	runA := deltaBuckets()

	// Batch two, too small to merge the first run: adds, a revived base id,
	// a rewrite in the run and one in the base, two more base removals.
	apply([]core.ProbeUpdate{
		{Op: core.OpAdd, ID: core.AutoID, Vec: vec()},
		{Op: core.OpAdd, ID: core.AutoID, Vec: vec()},
		{Op: core.OpAdd, ID: ids[3], Vec: vec()},
		{Op: core.OpUpdate, ID: added[7], Vec: vec()},
		{Op: core.OpUpdate, ID: ids[40], Vec: vec()},
		{Op: core.OpRemove, ID: ids[50]},
		{Op: core.OpRemove, ID: ids[60]},
	})
	now := deltaBuckets()
	if len(now) <= len(runA) {
		t.Fatalf("second batch added no run: %d delta buckets, %d after the first batch", len(now), len(runA))
	}
	for _, b := range runA {
		if !slices.Contains(now, b) {
			t.Fatalf("second batch merged the first run away (bucket %+v gone)", b)
		}
	}
	return ix
}

// TestMutatedSnapshotBytesPinned pins the bytes of a mutated index's
// snapshot. State compacts a clone, and the column order that compaction
// gives its matrix — the base segment's live columns in column order, then
// every newer live vector by ascending id — fixes the probe matrix and the
// bucket membership the file stores, so it is part of the format.
func TestMutatedSnapshotBytesPinned(t *testing.T) {
	files := make(map[core.Algorithm][]byte)
	for alg, pin := range map[core.Algorithm]string{core.AlgLI: mutatedSnapshotSHA256, core.AlgL: lengthSnapshotSHA256} {
		ix := mutatedIndex(t, alg)
		var buf bytes.Buffer
		if err := Write(&buf, ix.State()); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != pin {
			t.Errorf("%v: mutated snapshot (%d bytes) has SHA-256 %s, pinned %s", alg, buf.Len(), got, pin)
		}
		if ix.DeltaMass() == 0 {
			t.Fatalf("%v: exporting the snapshot compacted the index itself", alg)
		}
		files[alg] = buf.Bytes()
	}
	// The two files differ in the OPTS algorithm word and its checksum only.
	li, l := files[core.AlgLI], files[core.AlgL]
	if len(li) != len(l) {
		t.Fatalf("LI file %d bytes, L file %d", len(li), len(l))
	}
	optsLI, optsL := sectionPayload(t, li, tagOptions), sectionPayload(t, l, tagOptions)
	if binary.LittleEndian.Uint32(optsLI) != 0 || binary.LittleEndian.Uint32(optsL) != 1 {
		t.Fatalf("OPTS algorithm codes %d (LI) and %d (L), want 0 and 1", binary.LittleEndian.Uint32(optsLI), binary.LittleEndian.Uint32(optsL))
	}
	if !bytes.Equal(li, replaceSection(t, l, tagOptions, optsLI)) {
		t.Fatal("the LI and L files differ outside the OPTS algorithm code")
	}
}
