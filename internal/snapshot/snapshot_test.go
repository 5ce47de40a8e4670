package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"lemp/internal/core"
	"lemp/internal/matrix"
	"lemp/internal/retrieval"
)

// buildState makes a small tuned index state deterministically.
func buildState(t testing.TB) *core.State {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	p := matrix.New(8, 200)
	p.FillRandom(rng)
	for i := 0; i < 200; i++ { // skew lengths so several buckets form
		v := p.Vec(i)
		scale := math.Exp(0.9 * rng.NormFloat64())
		for f := range v {
			v[f] *= scale
		}
	}
	ix, err := core.NewIndex(p, core.Options{Algorithm: core.AlgLI, MinBucketSize: 10, SampleQueries: 8, TuneByCost: true})
	if err != nil {
		t.Fatal(err)
	}
	q := matrix.New(8, 20)
	q.FillRandom(rand.New(rand.NewSource(22)))
	if err := ix.Pretune(q, core.Problem{K: 5}); err != nil {
		t.Fatal(err)
	}
	return ix.State()
}

func TestWriteReadRoundTrip(t *testing.T) {
	st := buildState(t)
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Opts != st.Opts {
		t.Errorf("options differ:\n got %+v\nwant %+v", got.Opts, st.Opts)
	}
	if got.Pretuned != st.Pretuned {
		t.Errorf("pretuned %v, want %v", got.Pretuned, st.Pretuned)
	}
	if got.Probe.R() != st.Probe.R() || got.Probe.N() != st.Probe.N() {
		t.Fatalf("probe %d×%d, want %d×%d", got.Probe.R(), got.Probe.N(), st.Probe.R(), st.Probe.N())
	}
	if !reflect.DeepEqual(got.Probe.Data(), st.Probe.Data()) {
		t.Error("probe data differs")
	}
	// Default Write intentionally drops the optional sorted lists; every
	// other bucket field must round-trip exactly.
	want := append([]core.BucketState(nil), st.Buckets...)
	for i := range want {
		want[i].ListVals, want[i].ListLids = nil, nil
	}
	if !reflect.DeepEqual(got.Buckets, want) {
		t.Error("bucket states differ")
	}
	// The parsed state must satisfy every structural invariant.
	if _, err := core.FromState(got); err != nil {
		t.Fatalf("FromState on round-tripped state: %v", err)
	}
}

// TestWriteReadRoundTripWithLists: opting into list persistence must emit
// an SLST section and round-trip the sorted-list arrays bit-for-bit, and
// the loaded state must pass FromState's list verification.
func TestWriteReadRoundTripWithLists(t *testing.T) {
	st := buildState(t)
	withLists := false
	for _, b := range st.Buckets {
		if b.ListVals != nil {
			withLists = true
		}
	}
	if !withLists {
		t.Fatal("fixture built no sorted lists; pretuning should have")
	}
	var buf bytes.Buffer
	if err := WriteWith(&buf, st, WriteOptions{IncludeLists: true}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if v := version(raw); v != Version || !hasSection(t, raw, tagLists) {
		t.Fatalf("format version %d, SLST section %v; want %d and one", v, hasSection(t, raw, tagLists), Version)
	}
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Buckets, st.Buckets) {
		t.Error("bucket states (lists included) differ")
	}
	if _, err := core.FromState(got); err != nil {
		t.Fatalf("FromState on round-tripped state with lists: %v", err)
	}
	// Without any built lists, IncludeLists must write no empty SLST
	// section.
	plain := buildUntunedState(t)
	var buf2 bytes.Buffer
	if err := WriteWith(&buf2, plain, WriteOptions{IncludeLists: true}); err != nil {
		t.Fatal(err)
	}
	if v := version(buf2.Bytes()); v != Version || hasSection(t, buf2.Bytes(), tagLists) {
		t.Fatalf("listless IncludeLists snapshot: version %d, SLST section %v", v, hasSection(t, buf2.Bytes(), tagLists))
	}
}

// version returns a snapshot's format version.
func version(raw []byte) uint32 { return binary.LittleEndian.Uint32(raw[8:12]) }

// buildUntunedState makes a state whose buckets never built sorted lists.
func buildUntunedState(t testing.TB) *core.State {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	p := matrix.New(6, 60)
	p.FillRandom(rng)
	ix, err := core.NewIndex(p, core.Options{MinBucketSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	return ix.State()
}

// TestPlacementReadsParentCone: builds before this one wrote a PLMT
// section: a placement name and a cone flag, and into cluster shards of
// earlier builds still a direction cone (flag 1, uint32 centroid length 0 or
// r, the centroid, cos radius, max length). The reader must check that
// framing and discard it — rejecting a flag other than 0 or 1, a centroid
// length that is neither 0 nor r, an over-long name and a section that ends
// inside the cone — and no writer emits the section.
func TestPlacementReadsParentCone(t *testing.T) {
	raw := readFixture(t, "v5.snap")
	if got, want := sectionPayload(t, raw, tagPlacement), append([]byte{7}, "cluster\x00"...); !bytes.Equal(got, want) {
		t.Fatalf("fixture PLMT payload %q, want %q", got, want)
	}
	st, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r := st.Probe.R()
	var buf bytes.Buffer
	if err := WriteWith(&buf, st, WriteOptions{IncludeLists: true}); err != nil {
		t.Fatal(err)
	}
	if hasSection(t, buf.Bytes(), tagPlacement) {
		t.Fatal("the fixture written again carries a PLMT section")
	}
	cone := func(flag byte, clen, floats int) []byte {
		p := append([]byte{7}, "cluster"...)
		p = append(p, flag)
		p = binary.LittleEndian.AppendUint32(p, uint32(clen))
		for i := 0; i < floats; i++ {
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(0.5))
		}
		return p
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		ok      bool
	}{
		{"cone", cone(1, r, r+2), true},
		{"axis-free cone", cone(1, 0, 2), true},
		{"empty name", []byte{0, 0}, true},
		{"flag 2", cone(2, r, r+2), false},
		{"centroid length r+1", cone(1, r+1, r+3), false},
		{"centroid length 1", cone(1, 1, 3), false},
		{"name of 65 bytes", append(append([]byte{65}, strings.Repeat("x", 65)...), 0), false},
		{"section ends inside the name", []byte{7, 'c', 'l'}, false},
		{"section ends inside the centroid", cone(1, r, r-1), false},
		{"section ends inside the tail", cone(1, r, r+1), false},
		{"section ends inside the length", cone(1, r, 0)[:10], false},
	} {
		got, err := Read(bytes.NewReader(replaceSection(t, raw, tagPlacement, tc.payload)))
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := core.FromState(got); err != nil {
			t.Fatalf("%s: FromState: %v", tc.name, err)
		}
	}
	// A stream cut inside the cone fails too.
	full := replaceSection(t, raw, tagPlacement, cone(1, r, r+2))
	at := bytes.Index(full, tagPlacement[:]) + 12 + 13 + 8*(r/2)
	if _, err := Read(bytes.NewReader(full[:at])); err == nil {
		t.Error("stream truncated inside the cone accepted")
	}
}

// sections walks a snapshot stream's sections after the 16-byte header,
// calling fn with each tag and payload.
func sections(t *testing.T, raw []byte, fn func(tag [4]byte, payload []byte)) {
	t.Helper()
	for off := 16; off < len(raw); {
		var tag [4]byte
		copy(tag[:], raw[off:])
		n := int(binary.LittleEndian.Uint64(raw[off+4:]))
		fn(tag, raw[off+12:off+12+n])
		off += 12 + n + 4
	}
}

// sectionPayload returns the payload of the snapshot's section with tag.
func sectionPayload(t *testing.T, raw []byte, tag [4]byte) []byte {
	t.Helper()
	var out []byte
	sections(t, raw, func(tg [4]byte, p []byte) {
		if tg == tag {
			out = p
		}
	})
	if out == nil {
		t.Fatalf("no %q section", tag[:])
	}
	return out
}

// hasSection reports whether the snapshot has a section with tag.
func hasSection(t *testing.T, raw []byte, tag [4]byte) bool {
	t.Helper()
	found := false
	sections(t, raw, func(tg [4]byte, _ []byte) { found = found || tg == tag })
	return found
}

// replaceSection returns a copy of the snapshot with the payload of the
// section with tag replaced, its length and checksum rewritten to match.
func replaceSection(t *testing.T, raw []byte, tag [4]byte, payload []byte) []byte {
	t.Helper()
	out := append([]byte(nil), raw[:16]...)
	sections(t, raw, func(tg [4]byte, p []byte) {
		if tg == tag {
			p = payload
		}
		out = append(out, tg[:]...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(p)))
		out = append(out, p...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
	})
	return out
}

func TestReadRejectsBadMagicAndVersion(t *testing.T) {
	st := buildState(t)
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := Read(bytes.NewReader([]byte("LEMPMAT1garbage..."))); err == nil {
		t.Error("matrix magic accepted as a snapshot")
	}
	if v := version(raw); v != Version {
		t.Fatalf("format version %d, want %d", v, Version)
	}
	for _, v := range []uint32{0, Version + 1} {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(bad[8:12], v)
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Errorf("format version %d accepted", v)
		}
	}
}

// TestReadDetectsCorruption flips one byte at every offset of a valid
// snapshot: each flip must either be detected by Read/FromState or produce
// a state that still passes full validation (flips confined to unused
// padding would be acceptable — with this format there is none, so every
// accepted flip is a real failure).
func TestReadDetectsCorruption(t *testing.T) {
	st := buildState(t)
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	step := 1
	if len(raw) > 1<<16 {
		step = len(raw) / (1 << 16)
	}
	for off := 0; off < len(raw); off += step {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		got, err := Read(bytes.NewReader(bad))
		if err != nil {
			continue
		}
		if _, err := core.FromState(got); err == nil {
			t.Fatalf("bit flip at offset %d went undetected", off)
		}
	}
}

// TestListsCorruptionDetected is TestReadDetectsCorruption over a
// version-3 (SLST) snapshot, plus semantic tampering that keeps checksums
// valid: a list index whose bytes are intact but whose content disagrees
// with the bucket directions must be rejected by FromState's verification.
func TestListsCorruptionDetected(t *testing.T) {
	st := buildState(t)
	var buf bytes.Buffer
	if err := WriteWith(&buf, st, WriteOptions{IncludeLists: true}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	step := 1
	if len(raw) > 1<<16 {
		step = len(raw) / (1 << 16)
	}
	for off := 0; off < len(raw); off += step {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		got, err := Read(bytes.NewReader(bad))
		if err != nil {
			continue
		}
		if _, err := core.FromState(got); err == nil {
			t.Fatalf("bit flip at offset %d of a lists snapshot went undetected", off)
		}
	}

	// CRC-valid but semantically wrong lists: every tamper must fail
	// FromState, never load and silently mis-prune.
	tampers := []struct {
		name string
		mut  func(bs *core.BucketState)
	}{
		{"swapped lids", func(bs *core.BucketState) {
			bs.ListLids[0], bs.ListLids[1] = bs.ListLids[1], bs.ListLids[0]
		}},
		{"duplicated lid", func(bs *core.BucketState) {
			bs.ListLids[1] = bs.ListLids[0]
		}},
		{"out-of-range lid", func(bs *core.BucketState) {
			bs.ListLids[0] = int32(len(bs.IDs))
		}},
		{"value drift", func(bs *core.BucketState) {
			bs.ListVals[0] += 1e-9
		}},
		{"shape mismatch", func(bs *core.BucketState) {
			bs.ListVals = bs.ListVals[:len(bs.ListVals)-1]
		}},
	}
	for _, tc := range tampers {
		got, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		target := -1
		for i := range got.Buckets {
			if len(got.Buckets[i].ListLids) >= 2 {
				target = i
				break
			}
		}
		if target < 0 {
			t.Fatal("no bucket with a usable list in the fixture")
		}
		tc.mut(&got.Buckets[target])
		if _, err := core.FromState(got); err == nil {
			t.Errorf("%s: tampered list index loaded", tc.name)
		}
	}
}

// TestRestoredListsServeIdentically: an index restored from a lists
// snapshot must report its buckets indexed, answer exactly like the
// original, and not rebuild what the snapshot carried.
func TestRestoredListsServeIdentically(t *testing.T) {
	st := buildState(t)
	var buf bytes.Buffer
	if err := WriteWith(&buf, st, WriteOptions{IncludeLists: true}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.FromState(got)
	if err != nil {
		t.Fatal(err)
	}
	indexed := 0
	for _, b := range restored.Buckets() {
		if b.Indexed {
			indexed++
		}
	}
	if indexed == 0 {
		t.Fatal("restored index reports no pre-built bucket indexes")
	}
	listBytes := 0
	for _, bs := range st.Buckets {
		listBytes += 8*len(bs.ListVals) + 4*len(bs.ListLids)
	}
	if got := restored.ListBytes(); got == 0 || got != listBytes {
		t.Fatalf("restored index reports %d list bytes, the snapshot carried %d", got, listBytes)
	}
	original, err := core.FromState(buildState(t))
	if err != nil {
		t.Fatal(err)
	}
	q := matrix.New(st.Probe.R(), 5)
	q.FillRandom(rand.New(rand.NewSource(77)))
	wantTop, _, err := original.Retrieve(context.Background(), q, core.Problem{K: 7}, nil, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotTop, _, err := restored.Retrieve(context.Background(), q, core.Problem{K: 7}, nil, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTop, wantTop) {
		t.Fatal("restored-with-lists index answers differently")
	}
}

// buildQuantState makes a state whose index was built with
// Options.Quantize.
func buildQuantState(t testing.TB) *core.State {
	t.Helper()
	rng := rand.New(rand.NewSource(29))
	p := matrix.New(8, 200)
	p.FillRandom(rng)
	for i := 0; i < 200; i++ { // skew lengths so several buckets form
		v := p.Vec(i)
		scale := math.Exp(0.9 * rng.NormFloat64())
		for f := range v {
			v[f] *= scale
		}
	}
	ix, err := core.NewIndex(p, core.Options{MinBucketSize: 10, Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	return ix.State()
}

// TestQuantRoundTrip: a Quantize index records the option as a QNT8
// section of one zero byte per bucket — no sidecar — and restores with
// every bucket quantized, answering exactly like the original. A snapshot
// without the section restores with the option off.
func TestQuantRoundTrip(t *testing.T) {
	st := buildQuantState(t)
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if got, want := sectionPayload(t, raw, tagQuant), make([]byte, len(st.Buckets)); !bytes.Equal(got, want) {
		t.Fatalf("QNT8 payload %v, want %d zero bytes", got, len(want))
	}
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Opts.Quantize {
		t.Fatal("QNT8 snapshot read back with Opts.Quantize false")
	}
	restored, err := core.FromState(got)
	if err != nil {
		t.Fatal(err)
	}
	original, err := core.FromState(buildQuantState(t))
	if err != nil {
		t.Fatal(err)
	}
	if restored.SidecarBytes() == 0 || restored.SidecarBytes() != original.SidecarBytes() {
		t.Fatalf("restored index holds %d sidecar bytes, the original %d", restored.SidecarBytes(), original.SidecarBytes())
	}
	q := matrix.New(st.Probe.R(), 5)
	q.FillRandom(rand.New(rand.NewSource(78)))
	wantTop, _, err := original.Retrieve(context.Background(), q, core.Problem{K: 7}, nil, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotTop, _, err := restored.Retrieve(context.Background(), q, core.Problem{K: 7}, nil, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTop, wantTop) {
		t.Fatal("restored quant index answers differently")
	}

	plain := buildUntunedState(t)
	var buf2 bytes.Buffer
	if err := Write(&buf2, plain); err != nil {
		t.Fatal(err)
	}
	if hasSection(t, buf2.Bytes(), tagQuant) {
		t.Fatal("snapshot of an index without Quantize has a QNT8 section")
	}
	got2, err := Read(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got2.Opts.Quantize {
		t.Fatal("quantless snapshot read back with Opts.Quantize true")
	}
}

// TestQuantCorruptionDetected: the int8 sidecars a version-5 snapshot
// carries are skipped, never trusted. Tampered sidecar bytes under a fixed
// checksum load, the sidecars are rebuilt from the directions, and the
// index answers exactly like one loaded from the untouched file. A sidecar
// flag other than 0 or 1, or a sidecar the section ends inside, still fails.
func TestQuantCorruptionDetected(t *testing.T) {
	raw := readFixture(t, "v5.snap")
	st, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// Flip every sidecar byte, keeping the presence flags.
	payload := sectionPayload(t, raw, tagQuant)
	tampered := append([]byte(nil), payload...)
	off, sidecars := 0, 0
	for _, b := range st.Buckets {
		off++
		if payload[off-1] == 1 {
			end := off + len(b.IDs)*(16+st.Probe.R())
			for ; off < end; off++ {
				tampered[off] ^= 0x5a
			}
			sidecars++
		}
	}
	if sidecars == 0 || off != len(payload) {
		t.Fatalf("fixture QNT8: %d sidecars, %d of %d bytes walked", sidecars, off, len(payload))
	}
	answer := func(raw []byte) retrieval.TopK {
		t.Helper()
		st, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		ix, err := core.FromState(st)
		if err != nil {
			t.Fatal(err)
		}
		q := matrix.New(ix.R(), 6)
		q.FillRandom(rand.New(rand.NewSource(79)))
		top, stats, err := ix.Retrieve(context.Background(), q, core.Problem{K: 5}, nil, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ix.SidecarBytes() == 0 || stats.QuantScreened+stats.QuantSurvived == 0 {
			t.Fatalf("restored Quantize index: %d sidecar bytes, %+v", ix.SidecarBytes(), stats)
		}
		return top
	}
	if !reflect.DeepEqual(answer(replaceSection(t, raw, tagQuant, tampered)), answer(raw)) {
		t.Fatal("a tampered version-5 sidecar changed the answers")
	}
	for name, bad := range map[string][]byte{
		"flag 2":                        append([]byte{2}, payload[1:]...),
		"section ends inside a sidecar": payload[:len(payload)/2],
		"empty section":                 payload[:0],
	} {
		if _, err := Read(bytes.NewReader(replaceSection(t, raw, tagQuant, bad))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRetiredAlgorithmRefused patches the algorithm word of the committed
// version-5 fixture's OPTS section (checksum recomputed): a number the
// baselines TA, Tree, L2AP and BLSH once held is refused with that number,
// never loaded as another method; a serving algorithm's number still loads.
func TestRetiredAlgorithmRefused(t *testing.T) {
	raw := readFixture(t, "v5.snap")
	withAlgorithm := func(a uint32) []byte {
		opts := append([]byte(nil), sectionPayload(t, raw, tagOptions)...)
		binary.LittleEndian.PutUint32(opts[0:4], a)
		return replaceSection(t, raw, tagOptions, opts)
	}
	for a, name := range map[uint32]string{5: "TA", 6: "Tree", 7: "L2AP", 8: "BLSH"} {
		_, err := Read(bytes.NewReader(withAlgorithm(a)))
		if want := fmt.Sprintf("algorithm %d (LEMP-%s)", a, name); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("algorithm %d: err = %v, want one naming %q", a, err, want)
		}
	}
	if st, err := Read(bytes.NewReader(withAlgorithm(9))); err != nil {
		t.Fatal(err)
	} else if _, err := core.FromState(st); err == nil || !strings.Contains(err.Error(), "invalid algorithm 9") {
		t.Errorf("algorithm 9: FromState err = %v", err)
	}
	st, err := Read(bytes.NewReader(withAlgorithm(uint32(core.AlgLC))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.FromState(st); err != nil || st.Opts.Algorithm != core.AlgLC {
		t.Fatalf("patched to LC: algorithm %v, FromState: %v", st.Opts.Algorithm, err)
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	st := buildState(t)
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{0, 4, len(Magic), 16, 40, len(raw) / 2, len(raw) - 1} {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
}

// FuzzRead feeds arbitrary bytes to the snapshot reader: malformed input
// must error — never panic, never allocate beyond what the input backs —
// and anything Read accepts must either build or be rejected by FromState
// without panicking.
func FuzzRead(f *testing.F) {
	st := buildState(f)
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	var qbuf bytes.Buffer
	if err := Write(&qbuf, buildQuantState(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(qbuf.Bytes()) // QNT8 section reachable by mutation
	f.Add([]byte(Magic))
	f.Add([]byte{})
	// A header whose BUKT section claims huge sizes.
	crafted := append([]byte(nil), raw[:16]...)
	crafted = append(crafted, 'B', 'U', 'K', 'T', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	f.Add(crafted)
	for _, name := range []string{"v1.snap", "v2.snap", "v5.snap"} {
		f.Add(readFixture(f, name)) // older versions: skipped bytes reachable
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := core.FromState(got); err != nil {
			return // rejected by structural validation, as designed
		}
	})
}

// TestSortedListBytesMatchStableSort pins the SLST bytes to the tie order
// the section has always had — a stable sort of the local ids by decreasing
// value, so equal values (±0 included: equal under >, different bits) stay
// in ascending local id — on a catalog built to collide. A snapshot written
// from the index's own lists must equal, byte for byte, one written from
// lists sorted that way here.
func TestSortedListBytesMatchStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const r, n = 6, 400
	p := matrix.New(r, n)
	alphabet := []float64{-1, math.Copysign(0, -1), 0, 1, 2}
	for i := 0; i < n; i++ {
		v := p.Vec(i)
		for f := range v {
			v[f] = alphabet[rng.Intn(len(alphabet))]
		}
		v[rng.Intn(r)] = 1 // no zero vectors
	}
	ix, err := core.NewIndex(p, core.Options{Algorithm: core.AlgLI, MinBucketSize: 40, SampleQueries: 8, TuneByCost: true})
	if err != nil {
		t.Fatal(err)
	}
	q := matrix.New(r, 20)
	q.FillRandom(rng)
	if err := ix.Pretune(q, core.Problem{K: 5}); err != nil {
		t.Fatal(err)
	}
	st := ix.State()
	ref := *st
	ref.Buckets = append([]core.BucketState(nil), st.Buckets...)
	built, ties := 0, 0
	for bi := range ref.Buckets {
		b := &ref.Buckets[bi]
		if b.ListVals == nil {
			continue
		}
		built++
		size := len(b.IDs)
		_, dirs := derived(st, *b)
		b.ListVals, b.ListLids = make([]float64, size*r), make([]int32, size*r)
		perm := make([]int32, size)
		for f := 0; f < r; f++ {
			for i := range perm {
				perm[i] = int32(i)
			}
			sort.SliceStable(perm, func(x, y int) bool {
				return dirs[int(perm[x])*r+f] > dirs[int(perm[y])*r+f]
			})
			for i, lid := range perm {
				b.ListLids[f*size+i], b.ListVals[f*size+i] = lid, dirs[int(lid)*r+f]
				if i > 0 && b.ListVals[f*size+i] == b.ListVals[f*size+i-1] {
					ties++
				}
			}
		}
	}
	if built == 0 || ties == 0 {
		t.Fatalf("fixture built lists for %d buckets with %d tied neighbours; want both positive", built, ties)
	}
	var got, want bytes.Buffer
	if err := WriteWith(&got, st, WriteOptions{IncludeLists: true}); err != nil {
		t.Fatal(err)
	}
	if err := WriteWith(&want, &ref, WriteOptions{IncludeLists: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("snapshot with the index's sorted lists differs from one with stable-sorted lists")
	}
}
