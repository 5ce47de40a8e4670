package matrix

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"testing"
)

// craftedHeader builds a LEMPMAT1 header claiming r×n dimensions with no
// (or partial) data behind it.
func craftedHeader(r, n uint32, data []byte) []byte {
	buf := make([]byte, 0, 16+len(data))
	buf = append(buf, binaryMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, r)
	buf = binary.LittleEndian.AppendUint32(buf, n)
	return append(buf, data...)
}

// nonSeekable hides the Seeker implementation of an underlying reader, so
// ReadBinary must take the incremental-allocation path.
type nonSeekable struct{ r io.Reader }

func (n nonSeekable) Read(p []byte) (int, error) { return n.r.Read(p) }

func TestReadBinaryRejectsLyingHeaderSeekable(t *testing.T) {
	// 2^20 × 2^31 floats ≈ 16 PB claimed by a 16-byte file. bytes.Reader is
	// seekable, so the size check must reject it before any allocation.
	raw := craftedHeader(1<<20, 1<<31, nil)
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Fatal("huge claimed dimensions accepted from a 16-byte file")
	}
	// A merely-too-large claim on a seekable input fails the same way.
	raw = craftedHeader(4, 100, make([]byte, 8*8)) // claims 400 floats, has 8
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Fatal("seekable input shorter than claimed size accepted")
	}
}

func TestReadBinaryRejectsLyingHeaderStreaming(t *testing.T) {
	// Non-seekable: the reader cannot pre-validate the size, so it must
	// allocate incrementally and fail at the first missing byte.
	raw := craftedHeader(1<<20, 1<<31, nil)
	if _, err := ReadBinary(nonSeekable{bytes.NewReader(raw)}); err == nil {
		t.Fatal("huge claimed dimensions accepted from a streaming reader")
	}
	raw = craftedHeader(4, 100, make([]byte, 8*8))
	if _, err := ReadBinary(nonSeekable{bytes.NewReader(raw)}); err == nil {
		t.Fatal("streaming input shorter than claimed size accepted")
	}
}

func TestReadBinaryRejectsImplausibleDims(t *testing.T) {
	for _, hdr := range [][2]uint32{
		{1<<20 + 1, 1},       // r beyond the plausibility bound
		{1, math.MaxUint32},  // n beyond the plausibility bound
		{1 << 20, 1<<31 - 1}, // product implausibly large for any input
	} {
		raw := craftedHeader(hdr[0], hdr[1], nil)
		if _, err := ReadBinary(nonSeekable{bytes.NewReader(raw)}); err == nil {
			t.Errorf("dims %d×%d accepted", hdr[0], hdr[1])
		}
	}
}

func TestReadBinaryStreamingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(9, 100)
	m.FillRandom(rng)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(nonSeekable{&buf})
	if err != nil {
		t.Fatal(err)
	}
	if got.R() != m.R() || got.N() != m.N() {
		t.Fatalf("dims %d×%d", got.R(), got.N())
	}
	for i, x := range m.Data() {
		if got.Data()[i] != x {
			t.Fatalf("entry %d: %g != %g", i, got.Data()[i], x)
		}
	}
}

// bothDecoders runs f with this machine's encoding and decoding and, where
// those write and read values' bytes in place, again with the portable
// loops.
func bothDecoders(t *testing.T, f func(t *testing.T)) {
	t.Run("native", f)
	if littleEndian {
		littleEndian = false
		defer func() { littleEndian = true }()
		t.Run("portable", f)
	}
}

func TestFloat64sHelpersRoundTrip(t *testing.T) { bothDecoders(t, testFloat64sRoundTrip) }

func testFloat64sRoundTrip(t *testing.T) {
	// Cross the chunk boundary so both the full-chunk and tail paths run.
	vals := make([]float64, ioChunkFloats+137)
	rng := rand.New(rand.NewSource(4))
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	// Bit patterns that must survive as they are: a NaN payload, −0, ±Inf
	// and a subnormal.
	copy(vals[3:], []float64{math.Float64frombits(0x7ff8_0000_dead_beef), math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64})
	var buf bytes.Buffer
	if err := WriteFloat64s(&buf, vals); err != nil {
		t.Fatal(err)
	}
	// Both writers emit these bytes: each value's bits, little-endian.
	var want []byte
	for _, v := range vals {
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoded %d bytes, not the values' little-endian bits (%d bytes)", buf.Len(), len(want))
	}
	got, err := ReadFloat64s(bytes.NewReader(buf.Bytes()), len(vals))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(vals))
	if err := ReadFloat64sInto(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if b := math.Float64bits(v); math.Float64bits(got[i]) != b || math.Float64bits(dst[i]) != b {
			t.Fatalf("value %d: %g / %g != %g", i, got[i], dst[i], v)
		}
	}
	if _, err := ReadFloat64s(bytes.NewReader(buf.Bytes()), -1); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := ReadFloat64s(bytes.NewReader(nil), 10); err == nil {
		t.Error("empty input satisfied a positive count")
	}
}

func TestInt32sHelpersRoundTrip(t *testing.T) { bothDecoders(t, testInt32sRoundTrip) }

func testInt32sRoundTrip(t *testing.T) {
	vals := make([]int32, ioChunkFloats+61)
	rng := rand.New(rand.NewSource(6))
	for i := range vals {
		vals[i] = int32(rng.Uint32())
	}
	var buf bytes.Buffer
	if err := WriteInt32s(&buf, vals); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, v := range vals {
		want = binary.LittleEndian.AppendUint32(want, uint32(v))
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoded %d bytes, not the values' little-endian bits (%d bytes)", buf.Len(), len(want))
	}
	got, err := ReadInt32s(bytes.NewReader(buf.Bytes()), len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d: %d != %d", i, got[i], vals[i])
		}
	}
	if _, err := ReadInt32s(bytes.NewReader(buf.Bytes()), -1); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := ReadInt32s(bytes.NewReader(nil), 10); err == nil {
		t.Error("empty input satisfied a positive count")
	}
}

// FuzzReadBinary feeds arbitrary bytes to the binary decoder: it must error
// on malformed input — never panic, and never allocate more than the input
// can back (a lying header on these small inputs would OOM the fuzz worker
// if the claimed size were allocated up front).
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	m := New(3, 5)
	m.FillRandom(rand.New(rand.NewSource(5)))
	_ = WriteBinary(&buf, m)
	f.Add(buf.Bytes())
	f.Add(craftedHeader(1<<20, 1<<31, nil))
	f.Add(craftedHeader(4, 100, make([]byte, 64)))
	f.Add([]byte(binaryMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Both the seekable and streaming paths must agree on accept/reject.
		mSeek, errSeek := ReadBinary(bytes.NewReader(raw))
		mStream, errStream := ReadBinary(nonSeekable{bytes.NewReader(raw)})
		if (errSeek == nil) != (errStream == nil) {
			t.Fatalf("seekable err=%v, streaming err=%v", errSeek, errStream)
		}
		if errSeek != nil {
			return
		}
		if mSeek.R() != mStream.R() || mSeek.N() != mStream.N() {
			t.Fatalf("dims disagree: %d×%d vs %d×%d", mSeek.R(), mSeek.N(), mStream.R(), mStream.N())
		}
	})
}
