package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"lemp/internal/core"
	"lemp/internal/matrix"
	"lemp/internal/naive"
	"lemp/internal/quant"
	"lemp/internal/retrieval"
	"lemp/internal/vecmath"
)

// The fixtures in testdata were written by the last writer that emitted
// format versions 1–5 (commit a3ec2c3), with testdata/generate_test.go:
//
//	mkdir ../v5 && git archive a3ec2c3 | tar -x -C ../v5
//	cp internal/snapshot/mutated_test.go internal/snapshot/testdata/generate_test.go ../v5/internal/snapshot/
//	go test -C ../v5 ./internal/snapshot -run TestGenerateFixtures -fixtures "$PWD/internal/snapshot/testdata"
//
// v1.snap is a plain index, v2.snap TestMutatedSnapshotBytesPinned's mutated
// index, v5.snap a pretuned Quantize index with its sorted lists and a PLMT
// section naming a cluster placement, which the reader discards.
var oldFormats = []struct {
	file    string
	version uint32
}{{"v1.snap", 1}, {"v2.snap", 2}, {"v5.snap", 5}}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// derived returns the lengths and normalized directions of bucket b's
// members, by local id, as FromState derives them from the probe matrix.
func derived(st *core.State, b core.BucketState) (lens, dirs []float64) {
	r := st.Probe.R()
	lens, dirs = make([]float64, len(b.IDs)), make([]float64, len(b.IDs)*r)
	for lid, id := range b.IDs {
		col := int(id)
		if st.IDs != nil {
			col = slices.Index(st.IDs, id)
		}
		lens[lid] = vecmath.Normalize(dirs[lid*r:(lid+1)*r], st.Probe.Vec(col))
	}
	return lens, dirs
}

// TestReadsOlderFormats: every format version 1–5 file loads, with the
// algorithm it stored, and answers like internal/naive; the lengths,
// directions and int8 sidecars its BUKT and QNT8 sections store, which the
// reader skips, are bit for bit the ones derived from the probe matrix;
// truncation inside the skipped bytes still fails; and the version-2 file, written again, is byte for byte the
// version-6 snapshot of the index it was taken from.
func TestReadsOlderFormats(t *testing.T) {
	for _, f := range oldFormats {
		t.Run(f.file, func(t *testing.T) {
			raw := readFixture(t, f.file)
			if v := version(raw); v != f.version {
				t.Fatalf("fixture has format version %d, want %d", v, f.version)
			}
			st, err := Read(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			// Every fixture stored algorithm code 0, LI, and must come
			// back as LI.
			if code := binary.LittleEndian.Uint32(sectionPayload(t, raw, tagOptions)); code != 0 || st.Opts.Algorithm != core.AlgLI {
				t.Fatalf("OPTS algorithm code %d read as %v, want code 0 read as LI", code, st.Opts.Algorithm)
			}
			checkSkippedBytes(t, raw, st)
			lists := slices.ContainsFunc(st.Buckets, func(b core.BucketState) bool { return b.ListVals != nil })
			if full := st.Pretuned && lists && hasSection(t, raw, tagPlacement); full != (f.version == 5) {
				t.Fatalf("pretuned %v, sorted lists %v, PLMT section %v", st.Pretuned, lists, hasSection(t, raw, tagPlacement))
			}
			p, ids := st.Probe, st.IDs
			ix, err := core.FromState(st)
			if err != nil {
				t.Fatal(err)
			}
			answersLikeNaive(t, ix, p, ids)

			// Cut inside the first bucket's skipped directions: as a
			// truncated stream, and as a BUKT section that ends there.
			buckets := sectionPayload(t, raw, tagBuckets)
			size := int(binary.LittleEndian.Uint32(buckets[5:9]))
			inDirs := 5 + 21 + 4*size + 8*size + 8
			at := bytes.Index(raw, tagBuckets[:]) + 12 + inDirs
			if _, err := Read(bytes.NewReader(raw[:at])); err == nil {
				t.Error("stream truncated inside the skipped directions accepted")
			}
			if _, err := Read(bytes.NewReader(replaceSection(t, raw, tagBuckets, buckets[:inDirs]))); err == nil {
				t.Error("BUKT section ending inside the skipped directions accepted")
			}
		})
	}

	st, err := Read(bytes.NewReader(readFixture(t, "v2.snap")))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := Write(&got, ix.State()); err != nil {
		t.Fatal(err)
	}
	if err := Write(&want, mutatedIndex(t, core.AlgLI).State()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("version-2 file written again: %d bytes, differing from the %d of the fresh index's snapshot", got.Len(), want.Len())
	}
}

// checkSkippedBytes compares the derived arrays an older snapshot stores
// with the ones derived from its probe matrix, bit for bit.
func checkSkippedBytes(t *testing.T, raw []byte, st *core.State) {
	t.Helper()
	r := st.Probe.R()
	f64s := func(b []byte, n int) ([]float64, []byte) {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return out, b[8*n:]
	}
	buckets := sectionPayload(t, raw, tagBuckets)[5:]
	var quantized []byte
	if hasSection(t, raw, tagQuant) {
		quantized = sectionPayload(t, raw, tagQuant)
	}
	sidecars := 0
	for i, b := range st.Buckets {
		size := len(b.IDs)
		buckets = buckets[21+4*size:]
		var lens, dirs []float64
		lens, buckets = f64s(buckets, size)
		dirs, buckets = f64s(buckets, size*r)
		wantLens, wantDirs := derived(st, b)
		if !slices.Equal(lens, wantLens) || !slices.Equal(dirs, wantDirs) {
			t.Fatalf("bucket %d: stored lengths or directions differ from the derived ones", i)
		}
		if quantized == nil {
			continue
		}
		present := quantized[0]
		quantized = quantized[1:]
		if present == 0 {
			continue
		}
		sidecars++
		q8 := quant.QuantizeRows(wantDirs, r)
		// The stored per-row residual bounds are skipped: the sidecar keeps
		// only their panel maximum, and they follow from the directions and
		// codes compared here.
		var scales []float64
		scales, quantized = f64s(quantized, size)
		_, quantized = f64s(quantized, size)
		codes := make([]int8, size*r)
		for j := range codes {
			codes[j] = int8(quantized[j])
		}
		quantized = quantized[size*r:]
		if !slices.Equal(scales, q8.Scales) || !slices.Equal(codes, q8.Codes) {
			t.Fatalf("bucket %d: stored sidecar differs from the one quantized from the derived directions", i)
		}
	}
	if len(buckets) != 0 || len(quantized) != 0 {
		t.Fatalf("%d BUKT and %d QNT8 bytes left over", len(buckets), len(quantized))
	}
	if st.Opts.Quantize != (sidecars > 0) {
		t.Fatalf("Quantize %v with %d stored sidecars", st.Opts.Quantize, sidecars)
	}
}

// answersLikeNaive checks ix against internal/naive over its probe matrix p
// (column col named ids[col], or col when ids is nil): the same Row-Top-k
// ids and Above-θ entries, values within rounding of the exact products.
func answersLikeNaive(t *testing.T, ix *core.Index, p *matrix.Matrix, ids []int32) {
	t.Helper()
	ctx := context.Background()
	q := matrix.New(p.R(), 8)
	q.FillRandom(rand.New(rand.NewSource(91)))
	name := func(e retrieval.Entry) retrieval.Entry {
		if ids != nil {
			e.Probe = int(ids[e.Probe])
		}
		return e
	}
	same := func(got, want retrieval.Entry) bool {
		return got.Query == want.Query && got.Probe == want.Probe &&
			math.Abs(got.Value-want.Value) <= 1e-9*(1+math.Abs(want.Value))
	}

	wantTop, _ := naive.RowTopK(q, p, 5)
	gotTop, _, err := ix.Retrieve(ctx, q, core.Problem{K: 5}, nil, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantTop {
		if len(gotTop[i]) != len(wantTop[i]) {
			t.Fatalf("query %d: %d top-k entries, naive %d", i, len(gotTop[i]), len(wantTop[i]))
		}
		for j, w := range wantTop[i] {
			if !same(gotTop[i][j], name(w)) {
				t.Fatalf("query %d rank %d: %+v, naive %+v", i, j, gotTop[i][j], name(w))
			}
		}
	}

	// θ halfway across the widest gap among the 40 largest products.
	var all []float64
	naive.AboveTheta(q, p, math.SmallestNonzeroFloat64, func(e retrieval.Entry) { all = append(all, e.Value) })
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	gap := 1
	for i := 2; i < 40; i++ {
		if all[i-1]-all[i] > all[gap-1]-all[gap] {
			gap = i
		}
	}
	theta := (all[gap-1] + all[gap]) / 2
	var want, got []retrieval.Entry
	naive.AboveTheta(q, p, theta, func(e retrieval.Entry) { want = append(want, name(e)) })
	if _, _, err := ix.Retrieve(ctx, q, core.Problem{Theta: theta}, retrieval.Collect(&got), core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	retrieval.Sort(want)
	retrieval.Sort(got)
	if len(got) != len(want) {
		t.Fatalf("Above-θ: %d entries, naive %d", len(got), len(want))
	}
	for i := range want {
		if !same(got[i], want[i]) {
			t.Fatalf("Above-θ entry %d: %+v, naive %+v", i, got[i], want[i])
		}
	}
}

// TestReadBoundsNextID: MUTA's next AutoID may be at most one past the
// largest probe id. A larger one would wrap when narrowed to int32 and
// could hand a removed id out again.
func TestReadBoundsNextID(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, mutatedIndex(t, core.AlgLI).State()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	epoch := sectionPayload(t, raw, tagMuta)[:8]
	for _, tc := range []struct {
		name string
		next int64
		ok   bool
	}{
		{"negative", -1, false},
		{"one past the largest id", core.MaxProbeID + 1, true},
		{"wraps int32", core.MaxProbeID + 2, false},
	} {
		muta := binary.LittleEndian.AppendUint64(slices.Clone(epoch), uint64(tc.next))
		st, err := Read(bytes.NewReader(replaceSection(t, raw, tagMuta, muta)))
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: next id %d accepted as %d", tc.name, tc.next, st.NextID)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ix, err := core.FromState(st)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ix.NextID() != int32(tc.next) {
			t.Errorf("%s: next id %d, want %d", tc.name, ix.NextID(), tc.next)
		}
	}
}
