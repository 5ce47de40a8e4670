package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lemp/internal/core"
	"lemp/internal/matrix"
	"lemp/internal/vecmath"
)

// mutatedSnapshotSHA256 is the SHA-256 of the snapshot
// TestMutatedSnapshotBytesPinned writes. Change it only with a format change
// that says why the bytes of an unchanged index moved. Format version 6 moved
// them: BUKT no longer stored each member's length and direction. Format
// version 7 moved them again: the version word, and no BUKT section at all —
// a load derives the buckets from PROB; the PROB, PIDS and MUTA payloads
// did not change. Format version 8 moved them again: PROB and PIDS hold the
// probes in scan order, the version-2 payloads' columns stably sorted by
// decreasing length (inScanOrder), so that a load takes PROB as its bucket
// rows; MUTA did not change. It pins the index built with algorithm LI;
// lengthSnapshotSHA256 pins the same index built with algorithm L, whose
// file differs from it only in the OPTS algorithm code.
const (
	mutatedSnapshotSHA256 = "f46ec7a841d31df0037e0fc10538525c33020d8aaaf472bf9d4406b8a6454dbb"
	lengthSnapshotSHA256  = "dc5cd39b8b45e134a22f4b673a95098674e66236001cfd2ce8df78a9d8f971ae"
)

// inScanOrder returns the PROB and PIDS payloads of a file that stored its
// catalog in column order (versions 1–7; pids nil where it stored no PIDS,
// the ids being the column numbers) with the columns stably sorted by
// decreasing length (vecmath.Norm): the payloads a version-8 writer emits
// for the same catalog.
func inScanOrder(t *testing.T, prob, pids []byte) ([]byte, []byte) {
	t.Helper()
	r, n := int(binary.LittleEndian.Uint32(prob[0:4])), int(binary.LittleEndian.Uint32(prob[4:8]))
	if len(prob) != 8+8*r*n || (pids != nil && len(pids) != 4*n) {
		t.Fatalf("PROB of %d bytes for %d×%d values, PIDS of %d bytes", len(prob), r, n, len(pids))
	}
	col := func(c int) []byte { return prob[8+8*r*c : 8+8*r*(c+1)] }
	lens := make([]float64, n)
	order := make([]int, n)
	for c := range n {
		v := make([]float64, r)
		for f := range v {
			v[f] = math.Float64frombits(binary.LittleEndian.Uint64(col(c)[8*f:]))
		}
		lens[c], order[c] = vecmath.Norm(v), c
	}
	sort.SliceStable(order, func(a, b int) bool { return lens[order[a]] > lens[order[b]] })
	outProb, outPids := append([]byte(nil), prob[:8]...), make([]byte, 0, 4*n)
	for _, c := range order {
		outProb = append(outProb, col(c)...)
		id := uint32(c)
		if pids != nil {
			id = binary.LittleEndian.Uint32(pids[4*c:])
		}
		outPids = binary.LittleEndian.AppendUint32(outPids, id)
	}
	return outProb, outPids
}

// mutatedIndex builds the index TestMutatedSnapshotBytesPinned pins, under
// algorithm alg: built over shuffled, sparse caller ids, neither pretuned
// nor quantized, answering
// no retrieval (no sorted lists, no lazy sidecars), so its snapshot bytes
// depend on the mutation sequence alone. Its second batch lands beside the
// first batch's run without merging it: the export holds the live probes of
// a tombstoned base and two runs.
func mutatedIndex(t testing.TB, alg core.Algorithm) *core.Index {
	t.Helper()
	return mutatedIndexWith(t, core.Options{Algorithm: alg, MinBucketSize: 10}, nil)
}

// fullIndex is the index testdata/v6.snap was written from: mutatedIndex's
// catalog and batches under a Quantize LI index that fits by cost, pretuned
// for Row-Top-k at k 5 before its first batch. A version-6 writer stored
// its fit and its sorted lists beside the sections this writer keeps.
func fullIndex(t testing.TB) *core.Index {
	t.Helper()
	sample := matrix.New(6, 20)
	sample.FillRandom(rand.New(rand.NewSource(66)))
	opts := core.Options{Algorithm: core.AlgLI, MinBucketSize: 10, SampleQueries: 8, TuneByCost: true, Quantize: true}
	return mutatedIndexWith(t, opts, sample)
}

// mutatedIndexWith is mutatedIndex under opts, pretuned on sample for
// Row-Top-k at k 5 before the first batch when sample is not nil.
func mutatedIndexWith(t testing.TB, opts core.Options, sample *matrix.Matrix) *core.Index {
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
	ix, err := core.NewIndexWithIDs(p, ids, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sample != nil {
		if err := ix.Pretune(sample, core.Problem{K: 5}); err != nil {
			t.Fatal(err)
		}
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
// snapshot. State exports the live probes in scan order — the column order a
// Compact gives them (the base segment's live columns in column order, then
// every newer live vector by ascending id), stably sorted by decreasing
// length — which fixes the probe matrix the file stores, so it is part of
// the format: the PROB and PIDS payloads are those of testdata/v2.snap,
// which a version-2 writer wrote of the same index in that column order,
// with their columns in that length order, and MUTA is v2.snap's.
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
	v2 := readFixture(t, "v2.snap")
	prob, pids := inScanOrder(t, sectionPayload(t, v2, tagProbe), sectionPayload(t, v2, tagIDs))
	for _, c := range []struct {
		tag  [4]byte
		want []byte
	}{{tagProbe, prob}, {tagIDs, pids}, {tagMuta, sectionPayload(t, v2, tagMuta)}} {
		if !bytes.Equal(sectionPayload(t, files[core.AlgLI], c.tag), c.want) {
			t.Errorf("the %s payload differs from the version-2 fixture's in scan order", c.tag[:])
		}
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
