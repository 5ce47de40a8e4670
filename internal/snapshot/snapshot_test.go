package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
	raw := buf.Bytes()
	if got, want := tags(t, raw), []string{"OPTS", "PROB", "PIDS", "TSMP", "END\x00"}; !slices.Equal(got, want) {
		t.Fatalf("sections %q, want %q", got, want)
	}
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// A NextID that equals its derived default is not written, and reads
	// back as 0: "derive from the ids".
	want := *st
	want.NextID = 0
	if !reflect.DeepEqual(got, &want) {
		t.Errorf("state differs after the round trip:\n got %+v\nwant %+v", got, &want)
	}
	// The parsed state must satisfy every structural invariant, and restore
	// pretuned on its sample.
	ix, err := core.FromState(got)
	if err != nil {
		t.Fatalf("FromState on round-tripped state: %v", err)
	}
	if !ix.Pretuned() {
		t.Fatal("the round-tripped state restored unpretuned")
	}
}

// tags lists a snapshot's section tags in stream order.
func tags(t *testing.T, raw []byte) []string {
	t.Helper()
	var out []string
	sections(t, raw, func(tag [4]byte, _ []byte) { out = append(out, string(tag[:])) })
	return out
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
// earlier builds still a direction cone. The reader checks its checksum and
// discards it whatever it holds — a cone, a bad flag, an over-long name, a
// payload that ends inside the cone — and no writer emits the section. A
// checksum mismatch in it, or a stream cut inside it, still fails.
func TestPlacementReadsParentCone(t *testing.T) {
	raw := readFixture(t, "v5.snap")
	if got, want := sectionPayload(t, raw, tagPlacement), append([]byte{7}, "cluster\x00"...); !bytes.Equal(got, want) {
		t.Fatalf("fixture PLMT payload %q, want %q", got, want)
	}
	want, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	if hasSection(t, buf.Bytes(), tagPlacement) {
		t.Fatal("the fixture written again carries a PLMT section")
	}
	r := want.Probe.R()
	cone := func(flag byte, clen, floats int) []byte {
		p := append([]byte{7}, "cluster"...)
		p = append(p, flag)
		p = binary.LittleEndian.AppendUint32(p, uint32(clen))
		for i := 0; i < floats; i++ {
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(0.5))
		}
		return p
	}
	for name, payload := range map[string][]byte{
		"cone":                             cone(1, r, r+2),
		"axis-free cone":                   cone(1, 0, 2),
		"empty name":                       {0, 0},
		"flag 2":                           cone(2, r, r+2),
		"centroid length r+1":              cone(1, r+1, r+3),
		"name of 65 bytes":                 append(append([]byte{65}, strings.Repeat("x", 65)...), 0),
		"section ends inside the centroid": cone(1, r, r-1),
		"empty section":                    {},
	} {
		got, err := Read(bytes.NewReader(replaceSection(t, raw, tagPlacement, payload)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the PLMT payload changed the state read", name)
		}
	}
	full := replaceSection(t, raw, tagPlacement, cone(1, r, r+2))
	at := bytes.Index(full, tagPlacement[:])
	if _, err := Read(bytes.NewReader(full[:at+12+13+8*(r/2)])); err == nil {
		t.Error("stream truncated inside the cone accepted")
	}
	full[at+12] ^= 0x40
	if _, err := Read(bytes.NewReader(full)); err == nil {
		t.Error("PLMT payload under a stale checksum accepted")
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

// TestReadRefusesMalformedSections: a non-zero reserved header word, a
// section that appears twice — a kept one or one the reader discards — and
// an unknown section tag are refused, as are a stream without OPTS or PROB
// and a PIDS section ahead of PROB.
func TestReadRefusesMalformedSections(t *testing.T) {
	raw := readFixture(t, "v6.snap")
	if _, err := Read(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	// rebuild re-frames the fixture's sections, in the order keep returns.
	rebuild := func(keep func(tag [4]byte, payload []byte) [][4]byte) []byte {
		out := append([]byte(nil), raw[:16]...)
		sections(t, raw, func(tag [4]byte, p []byte) {
			for _, tg := range keep(tag, p) {
				out = append(out, tg[:]...)
				out = binary.LittleEndian.AppendUint64(out, uint64(len(p)))
				out = append(out, p...)
				out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
			}
		})
		return out
	}
	twice := func(dup [4]byte) []byte {
		return rebuild(func(tag [4]byte, _ []byte) [][4]byte {
			if tag == dup {
				return [][4]byte{tag, tag}
			}
			return [][4]byte{tag}
		})
	}
	without := func(drop [4]byte) []byte {
		return rebuild(func(tag [4]byte, _ []byte) [][4]byte {
			if tag == drop {
				return nil
			}
			return [][4]byte{tag}
		})
	}
	reserved := append([]byte(nil), raw...)
	reserved[12] = 1
	cases := map[string][]byte{
		"reserved word 1": reserved,
		"unknown tag":     replaceTag(raw, tagLists, [4]byte{'S', 'L', 'S', 'U'}),
		"no OPTS":         without(tagOptions),
		"no PROB":         without(tagProbe),
		"PIDS ahead of PROB": rebuild(func(tag [4]byte, _ []byte) [][4]byte {
			switch tag {
			case tagOptions:
				return [][4]byte{tagOptions, tagIDs}
			case tagIDs:
				return nil
			}
			return [][4]byte{tag}
		}),
	}
	for _, tag := range [][4]byte{tagOptions, tagProbe, tagIDs, tagMuta, tagTune, tagQuant, tagBuckets, tagLists} {
		cases["two "+string(tag[:])] = twice(tag)
	}
	for name, bad := range cases {
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// replaceTag returns a copy of the snapshot with the tag of the section
// tagged from renamed to to; payload and checksum stay.
func replaceTag(raw []byte, from, to [4]byte) []byte {
	out := append([]byte(nil), raw...)
	at := bytes.Index(out[16:], from[:]) + 16
	copy(out[at:], to[:])
	return out
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

// TestListsCorruptionDetected is TestReadDetectsCorruption over the
// version-6 fixture, whose BUKT, SLST and QNT8 sections the reader discards:
// a flip inside a discarded payload is caught by its checksum like any
// other. A discarded payload rewritten under a valid checksum — lists that
// disagree with the probes, a garbage bucketization — loads, and the index
// answers exactly like one loaded from the untouched file.
func TestListsCorruptionDetected(t *testing.T) {
	raw := readFixture(t, "v6.snap")
	for off := 0; off < len(raw); off++ {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		got, err := Read(bytes.NewReader(bad))
		if err != nil {
			continue
		}
		if _, err := core.FromState(got); err == nil {
			t.Fatalf("bit flip at offset %d of the version-6 fixture went undetected", off)
		}
	}

	want := answer(t, raw, 80)
	for _, tag := range [][4]byte{tagBuckets, tagLists, tagQuant} {
		tampered := append([]byte(nil), sectionPayload(t, raw, tag)...)
		for i := range tampered {
			tampered[i] ^= 0x5a
		}
		if !reflect.DeepEqual(answer(t, replaceSection(t, raw, tag, tampered), 80), want) {
			t.Errorf("a tampered %s payload changed the answers", tag[:])
		}
	}
}

// answer loads a snapshot and returns its Row-Top-k answers at k 5 to six
// random queries drawn from seed.
func answer(t *testing.T, raw []byte, seed int64) retrieval.TopK {
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
	q.FillRandom(rand.New(rand.NewSource(seed)))
	top, _, err := ix.Retrieve(context.Background(), q, core.Problem{K: 5}, nil, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// TestRestoredListsServeIdentically: the version-6 fixture stored the
// sorted lists of the index it was written from; restored, it builds its own
// lists and fit instead, pretuned on the stored sample — the fit, under
// TuneByCost, the one the version-8 file of the same index restores — and
// answers exactly like that index.
func TestRestoredListsServeIdentically(t *testing.T) {
	raw := readFixture(t, "v6.snap")
	if !hasSection(t, raw, tagLists) {
		t.Fatal("the version-6 fixture stores no sorted lists")
	}
	st, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	original := fullIndex(t)
	fresh, err := core.FromState(original.State())
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Pretuned() || !reflect.DeepEqual(restored.Buckets(), fresh.Buckets()) {
		t.Fatalf("restored from version 6: pretuned %v, buckets %+v; from version 8: %+v", restored.Pretuned(), restored.Buckets(), fresh.Buckets())
	}
	if restored.ListBytes() == 0 {
		t.Fatal("the restore's Pretune built no sorted list")
	}
	q := matrix.New(st.Probe.R(), 5)
	q.FillRandom(rand.New(rand.NewSource(77)))
	wantTop, _, err := original.Retrieve(context.Background(), q, core.Problem{K: 7}, nil, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotTop, stats, err := restored.Retrieve(context.Background(), q, core.Problem{K: 7}, nil, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTop, wantTop) {
		t.Fatal("the index restored from version 6 answers differently")
	}
	if stats.TuneTime != 0 {
		t.Fatalf("the pretuned restore tuned per call: %v", stats.TuneTime)
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

// TestQuantRoundTrip: a Quantize index records the option as an empty QNT8
// section and restores with the option and no sidecar, answering exactly
// like the original and building the same sidecars on the way. A snapshot
// without the section restores with the option off.
func TestQuantRoundTrip(t *testing.T) {
	st := buildQuantState(t)
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if got := tags(t, raw); !slices.Equal(got, []string{"OPTS", "PROB", "PIDS", "QNT8", "END\x00"}) {
		t.Fatalf("sections %q, want an empty QNT8 after PROB and PIDS", got)
	}
	if got := sectionPayload(t, raw, tagQuant); len(got) != 0 {
		t.Fatalf("QNT8 payload %v, want none", got)
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
	if restored.SidecarBytes() != 0 || original.SidecarBytes() != 0 {
		t.Fatalf("before any retrieval the restored index holds %d sidecar bytes, the original %d", restored.SidecarBytes(), original.SidecarBytes())
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
	if restored.SidecarBytes() == 0 || restored.SidecarBytes() != original.SidecarBytes() {
		t.Fatalf("after one retrieval the restored index holds %d sidecar bytes, the original %d", restored.SidecarBytes(), original.SidecarBytes())
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
// carries are discarded, never trusted. Tampered sidecar bytes, a bad
// presence flag, a section that ends inside a sidecar and an empty one all
// load under a valid checksum: the sidecars are rebuilt from the probes, and
// the index answers exactly like one loaded from the untouched file. A
// checksum mismatch in the section still fails.
func TestQuantCorruptionDetected(t *testing.T) {
	raw := readFixture(t, "v5.snap")
	payload := sectionPayload(t, raw, tagQuant)
	flipped := append([]byte(nil), payload...)
	for i := range flipped {
		flipped[i] ^= 0x5a
	}
	want := answer(t, raw, 79)
	for name, p := range map[string][]byte{
		"every byte flipped":            flipped,
		"flag 2":                        append([]byte{2}, payload[1:]...),
		"section ends inside a sidecar": payload[:len(payload)/2],
		"empty section":                 payload[:0],
	} {
		tampered := replaceSection(t, raw, tagQuant, p)
		st, err := Read(bytes.NewReader(tampered))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !st.Opts.Quantize {
			t.Fatalf("%s: read with Quantize off", name)
		}
		if !reflect.DeepEqual(answer(t, tampered, 79), want) {
			t.Fatalf("%s: a tampered version-5 sidecar changed the answers", name)
		}
	}
	bad := append([]byte(nil), raw...)
	bad[bytes.Index(bad, tagQuant[:])+12] ^= 0x5a
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("QNT8 payload under a stale checksum accepted")
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
	for _, name := range []string{"v1.snap", "v2.snap", "v5.snap", "v6.snap", "v7.snap"} {
		f.Add(readFixture(f, name)) // older versions: discarded sections reachable
	}
	var full bytes.Buffer
	if err := Write(&full, fullIndex(f).State()); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes()) // version 8 in scan order, every section present
	f.Fuzz(func(t *testing.T, data []byte) {
		// Through an io.Seeker a matrix whose bytes are all there is read in
		// place; through io.MultiReader, which hides Seek, a chunk at a time.
		// Both must come to the same outcome.
		got, err := Read(bytes.NewReader(data))
		streamed, serr := Read(io.MultiReader(bytes.NewReader(data)))
		if fmt.Sprint(err) != fmt.Sprint(serr) {
			t.Fatalf("Read through a Seeker: %v; through io.MultiReader: %v", err, serr)
		}
		if err != nil {
			return
		}
		if a, b := stateImage(t, got), stateImage(t, streamed); !bytes.Equal(a, b) {
			t.Fatal("Read through a Seeker and through io.MultiReader gave different states")
		}
		if _, err := core.FromState(got); err != nil {
			return // rejected by structural validation, as designed
		}
	})
}

// stateImage is a state's bytes as Write emits them plus its NextID, which
// Write leaves out when it equals the derived default: two states Read
// returned are equal iff their images are (bit for bit, NaN payloads
// included).
func stateImage(t *testing.T, st *core.State) []byte {
	t.Helper()
	return fmt.Appendf(writeState(t, st), "%d", st.NextID)
}
