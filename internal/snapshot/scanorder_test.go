package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lemp/internal/core"
	"lemp/internal/matrix"
	"lemp/internal/naive"
	"lemp/internal/retrieval"
)

// A version-8 file stores its probes in scan order, which a load takes as
// its bucket layout where it lies (core.FromState); any other order loads by
// sorting. These tests hold both paths to the same index.

// load reads a snapshot and builds its index.
func load(t *testing.T, raw []byte) *core.Index {
	t.Helper()
	st, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// answers returns ix's Row-Top-k rows at k and its Above-θ entries at θ,
// sorted, for the queries q.
func answers(t *testing.T, ix *core.Index, q *matrix.Matrix, k int, theta float64) (retrieval.TopK, []retrieval.Entry) {
	t.Helper()
	top, _, err := ix.Retrieve(context.Background(), q, core.Problem{K: k}, nil, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var above []retrieval.Entry
	if _, _, err := ix.Retrieve(context.Background(), q, core.Problem{Theta: theta}, retrieval.Collect(&above), core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	retrieval.Sort(above)
	return top, above
}

// TestVersion7And8Agree: the version-7 fixture, which stores fullIndex's
// catalog in the Compact column order, and the version-8 file of the same
// index, which stores it in scan order, restore the same index: equal
// Buckets (sizes, lengths, sidecars, the fit), equal answers, the mutated
// original's among them, and equal re-exported version-8 bytes, those of
// the version-8 file itself. The version-8 PROB and PIDS are the
// version-7 ones in scan order.
func TestVersion7And8Agree(t *testing.T) {
	v7 := readFixture(t, "v7.snap")
	ix := fullIndex(t)
	v8 := writeState(t, ix.State())
	if version(v7) != 7 || version(v8) != 8 {
		t.Fatalf("format versions %d and %d, want 7 and 8", version(v7), version(v8))
	}
	prob, pids := inScanOrder(t, sectionPayload(t, v7, tagProbe), sectionPayload(t, v7, tagIDs))
	if !bytes.Equal(prob, sectionPayload(t, v8, tagProbe)) || !bytes.Equal(pids, sectionPayload(t, v8, tagIDs)) {
		t.Fatal("the version-8 PROB and PIDS are not the version-7 ones in scan order")
	}
	from7, from8 := load(t, v7), load(t, v8)
	if !from7.Pretuned() || !reflect.DeepEqual(from7.Buckets(), from8.Buckets()) {
		t.Fatalf("restored from version 7: pretuned %v, buckets %+v; from version 8: %+v", from7.Pretuned(), from7.Buckets(), from8.Buckets())
	}
	q := matrix.New(ix.R(), 8)
	q.FillRandom(rand.New(rand.NewSource(52)))
	wantTop, wantAbove := answers(t, ix, q, 7, 1)
	if len(wantAbove) == 0 {
		t.Fatal("θ 1 selects no entry")
	}
	for name, re := range map[string]*core.Index{"version 7": from7, "version 8": from8} {
		top, above := answers(t, re, q, 7, 1)
		if !reflect.DeepEqual(top, wantTop) || !reflect.DeepEqual(above, wantAbove) {
			t.Errorf("restored from %s: answers differ from the mutated index's", name)
		}
		if !bytes.Equal(writeState(t, re.State()), v8) {
			t.Errorf("restored from %s: re-exported bytes differ from the version-8 file", name)
		}
	}
}

// TestOutOfOrderRowsLoadSorted: a version-8 file whose PROB columns, with
// their PIDS, were put out of scan order and their checksums rewritten
// loads by the sorting path — in ascending id order, which is a version-7
// writer's column order for this index, and reversed, every length then
// rising — and answers like internal/naive over the catalog, with the
// buckets of the file in scan order.
func TestOutOfOrderRowsLoadSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const r, n = 8, 600
	p := matrix.New(r, n)
	for col := range n {
		v, scale := p.Vec(col), math.Exp(0.9*rng.NormFloat64())
		for f := range v {
			v[f] = scale * rng.NormFloat64()
		}
	}
	built, err := core.NewIndex(p, core.Options{MinBucketSize: 10, Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	raw := writeState(t, built.State())
	prob, pids := sectionPayload(t, raw, tagProbe), sectionPayload(t, raw, tagIDs)
	// reorder puts the file's column at[i] in column i.
	reorder := func(at func(i int) int) []byte {
		outProb, outPids := append([]byte(nil), prob[:8]...), []byte(nil)
		for i := range n {
			c := at(i)
			outProb = append(outProb, prob[8+8*r*c:8+8*r*(c+1)]...)
			outPids = append(outPids, pids[4*c:4*(c+1)]...)
		}
		return replaceSection(t, replaceSection(t, raw, tagProbe, outProb), tagIDs, outPids)
	}
	byID := make([]int, n) // file column of each id
	for c := range n {
		byID[binary.LittleEndian.Uint32(pids[4*c:])] = c
	}
	q := matrix.New(r, 10)
	q.FillRandom(rng)
	const k, theta = 6, 2.0
	wantTop, _ := naive.RowTopK(q, p, k)
	var wantAbove []retrieval.Entry
	naive.AboveTheta(q, p, theta, retrieval.Collect(&wantAbove))
	retrieval.Sort(wantAbove)
	if len(wantAbove) == 0 {
		t.Fatalf("θ %g selects no entry", theta)
	}
	want := load(t, raw).Buckets()
	for name, file := range map[string][]byte{
		"ascending ids": reorder(func(i int) int { return byID[i] }),
		"reversed":      reorder(func(i int) int { return n - 1 - i }),
	} {
		if bytes.Equal(file, raw) {
			t.Fatalf("%s: the file is still in scan order", name)
		}
		ix := load(t, file)
		if !reflect.DeepEqual(ix.Buckets(), want) {
			t.Errorf("%s: buckets differ from those of the file in scan order", name)
		}
		top, above := answers(t, ix, q, k, theta)
		if !reflect.DeepEqual(top, wantTop) || !slices.Equal(above, wantAbove) {
			t.Errorf("%s: answers differ from internal/naive's", name)
		}
	}
}

// TestRestoreAllocatesNoSecondCopy: reading a version-8 file of a Quantize
// index and building its index allocates less than the file's size plus a
// tenth: the probes are read once, into the matrix whose values become the
// bucket rows, and never copied (a second copy alone would cost the file's
// size again), and no bucket is quantized: neither the build nor the
// restore holds a sidecar before a pair screens.
func TestRestoreAllocatesNoSecondCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	const r, n = 50, 40000
	p := matrix.New(r, n)
	for col := range n {
		v, scale := p.Vec(col), math.Exp(rng.NormFloat64())
		for f := range v {
			v[f] = scale * rng.NormFloat64()
		}
	}
	built, err := core.NewIndex(p, core.Options{Quantize: true, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	raw := writeState(t, built.State())
	var ix *core.Index
	alloc := allocated(func() {
		st, err := Read(bytes.NewReader(raw))
		if err == nil {
			ix, err = core.FromState(st)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if side := ix.SidecarBytes(); side != 0 || built.SidecarBytes() != 0 {
		t.Fatalf("restored sidecars %d bytes, built %d, before any retrieval", side, built.SidecarBytes())
	}
	if budget := uint64(len(raw)) * 11 / 10; alloc > budget {
		t.Errorf("a restore of a %d-byte file allocated %d bytes, over %d", len(raw), alloc, budget)
	}
	t.Logf("file %d bytes, restore allocated %d", len(raw), alloc)
}
