package snapshot

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"lemp/internal/core"
)

// The fixtures v1.snap, v2.snap and v5.snap in testdata were written by the
// last writer that emitted format versions 1–5 (commit a3ec2c3), with
// testdata/generate_test.go:
//
//	mkdir ../v5 && git archive a3ec2c3 | tar -x -C ../v5
//	cp internal/snapshot/mutated_test.go internal/snapshot/testdata/generate_test.go ../v5/internal/snapshot/
//	go test -C ../v5 ./internal/snapshot -run TestGenerateFixtures -fixtures "$PWD/internal/snapshot/testdata"
//
// v1.snap is a plain index, v2.snap TestMutatedSnapshotBytesPinned's mutated
// index, v5.snap a pretuned Quantize index with its sorted lists and a PLMT
// section naming a cluster placement. v6.snap was written by the last writer
// that emitted format version 6 (commit 0045603), with
// testdata/generate_v6_test.go, from fullIndex — pretuned, mutated, Quantize
// LI — with its sorted lists, so it carries BUKT, SLST and QNT8:
//
//	mkdir ../v6 && git archive 0045603 | tar -x -C ../v6
//	cp internal/snapshot/mutated_test.go internal/snapshot/testdata/generate_v6_test.go ../v6/internal/snapshot/
//	go test -C ../v6 ./internal/snapshot -run TestGenerateV6Fixture -v6fixture "$PWD/internal/snapshot/testdata"
//
// v7.snap was written by the last writer that emitted format version 7
// (commit 068259d), with testdata/generate_v7_test.go, from the same
// fullIndex; it stores the catalog in column order, without the derived
// sections (TestVersion7And8Agree reads it):
//
//	mkdir ../v7 && git archive 068259d | tar -x -C ../v7
//	cp internal/snapshot/testdata/generate_v7_test.go ../v7/internal/snapshot/
//	go test -C ../v7 ./internal/snapshot -run TestGenerateV7Fixture -v7fixture "$PWD/internal/snapshot/testdata"
var oldFormats = []struct {
	file    string
	version uint32
}{{"v1.snap", 1}, {"v2.snap", 2}, {"v5.snap", 5}, {"v6.snap", 6}}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestReadsOlderFormats: every format version 1–6 file loads, with the
// algorithm it stored (the root harness's TestDifferentialFixtures holds its
// answers to a reference), pretuned when it retains a tuning sample. The
// derived and retired sections it carries — BUKT in all, SLST and QNT8 in
// the pretuned ones, PLMT in version 5 — are discarded whatever they hold,
// and a stream cut inside one still fails. The version-2 file, written
// again, is byte for byte the version-8 snapshot of the index it was taken
// from, and the version-6 file's MUTA and TSMP payloads are those of the
// version-8 file its index writes, its PROB and PIDS those in scan order
// (inScanOrder).
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
			full := f.version >= 5
			if (st.TuneSample != nil) != full || hasSection(t, raw, tagLists) != full || hasSection(t, raw, tagPlacement) != (f.version == 5) {
				t.Fatalf("tuning sample %v, SLST section %v, PLMT section %v", st.TuneSample != nil, hasSection(t, raw, tagLists), hasSection(t, raw, tagPlacement))
			}
			ix, err := core.FromState(st)
			if err != nil {
				t.Fatal(err)
			}
			if ix.Pretuned() != full {
				t.Fatalf("restored pretuned %v, want %v", ix.Pretuned(), full)
			}

			// BUKT holds anything under a valid checksum; a stream cut
			// inside it fails.
			garbage, err := Read(bytes.NewReader(replaceSection(t, raw, tagBuckets, []byte("not a bucketization"))))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(garbage, st) {
				t.Fatal("the BUKT payload changed the state read")
			}
			at := bytes.Index(raw, tagBuckets[:]) + 12 + len(sectionPayload(t, raw, tagBuckets))/2
			if _, err := Read(bytes.NewReader(raw[:at])); err == nil {
				t.Error("stream truncated inside BUKT accepted")
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

	v6 := readFixture(t, "v6.snap")
	var v8 bytes.Buffer
	if err := Write(&v8, fullIndex(t).State()); err != nil {
		t.Fatal(err)
	}
	prob, pids := inScanOrder(t, sectionPayload(t, v6, tagProbe), sectionPayload(t, v6, tagIDs))
	for _, c := range []struct {
		tag  [4]byte
		want []byte
	}{{tagProbe, prob}, {tagIDs, pids}, {tagMuta, sectionPayload(t, v6, tagMuta)}, {tagTune, sectionPayload(t, v6, tagTune)}} {
		if !bytes.Equal(c.want, sectionPayload(t, v8.Bytes(), c.tag)) {
			t.Errorf("the %s payloads of the version-6 fixture and of its index's version-8 file differ", c.tag[:])
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
