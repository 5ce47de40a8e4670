package snapshot

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"lemp/internal/core"
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
// algorithm it stored (the root harness's TestDifferentialFixtures holds its
// answers to a reference); the lengths,
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
			if _, err := core.FromState(st); err != nil {
				t.Fatal(err)
			}

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
		wantScales, wantCodes := perRowQuantize(wantDirs, r)
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
		if !slices.Equal(scales, wantScales) || !slices.Equal(codes, wantCodes) {
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

// perRowQuantize is the sidecar layout versions 1–5 stored under QNT8, as
// their builds quantized it: each row at its own step maxabs/127 (0 for a
// zero or non-finite row, whose codes stay 0), its codes by reciprocal
// multiply (division where the reciprocal overflows), rounded to even and
// clamped to ±127. The library now quantizes a bucket at one step, so the
// fixture check keeps this copy to hold the stored scales and codes to what
// their directions give.
func perRowQuantize(rows []float64, r int) (scales []float64, codes []int8) {
	n := len(rows) / r
	scales, codes = make([]float64, n), make([]int8, len(rows))
	for i := range scales {
		row := rows[i*r : (i+1)*r]
		maxabs, finite := 0.0, true
		for _, x := range row {
			finite = finite && x-x == 0
			maxabs = max(maxabs, math.Abs(x))
		}
		scale := maxabs / 127
		if !finite || scale == 0 || math.IsInf(scale, 0) {
			continue
		}
		inv := 1 / scale
		for j, x := range row {
			c := math.RoundToEven(x * inv)
			if math.IsInf(inv, 0) {
				c = math.RoundToEven(x / scale)
			}
			codes[i*r+j] = int8(min(max(c, -127), 127))
		}
		scales[i] = scale
	}
	return scales, codes
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
