package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"lemp/internal/core"
	"lemp/internal/matrix"
)

// The reader takes one of two paths for a matrix's values: straight into a
// slice of the matrix's size when the input proves it holds them (an
// io.Seeker's remaining length, probed once at Read's entry), a chunk at a
// time otherwise. These tests hold both to the bound that allocation never
// exceeds the bytes present, and to the same result.

// boundState is a 50 × 10 000 catalog: a 4 MB PROB, large against the
// reader's fixed scratch (a 4 KiB bufio buffer, one 64 KiB chunk).
func boundState(t testing.TB) *core.State {
	t.Helper()
	p := matrix.New(50, 10000)
	p.FillRandom(rand.New(rand.NewSource(49)))
	return &core.State{Opts: core.Options{Quantize: true}, Probe: p}
}

func writeState(t testing.TB, st *core.State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// probeOffset is where PROB's tag starts: after the 16-byte header and the
// fixed-size OPTS section.
const probeOffset = 16 + 4 + 8 + optionsLen + 4

// lyingProbe returns a stream whose PROB header claims 50 × 2²⁴ values
// (6.7 GB) and which ends after values of them. With wholeLength the
// section's declared length claims them too; otherwise it covers only the
// values present.
func lyingProbe(t *testing.T, raw []byte, values int, wholeLength bool) []byte {
	t.Helper()
	if string(raw[probeOffset:probeOffset+4]) != "PROB" {
		t.Fatalf("PROB not at offset %d", probeOffset)
	}
	const r, n = 50, 1 << 24
	out := append([]byte(nil), raw[:probeOffset+4]...)
	length := uint64(8 + 8*values)
	if wholeLength {
		length = 8 + 8*r*n
	}
	out = binary.LittleEndian.AppendUint64(out, length)
	out = binary.LittleEndian.AppendUint32(out, r)
	out = binary.LittleEndian.AppendUint32(out, n)
	for i := 0; i < values; i++ {
		out = binary.LittleEndian.AppendUint64(out, uint64(i))
	}
	return out
}

// allocated returns the bytes fn allocates (runtime.MemStats.TotalAlloc).
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// openAt writes prefix then data to a file and returns it opened and
// positioned at data's first byte.
func openAt(t *testing.T, prefix, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap")
	if err := os.WriteFile(path, append(append([]byte(nil), prefix...), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if _, err := f.Seek(int64(len(prefix)), io.SeekStart); err != nil {
		t.Fatal(err)
	}
	return f
}

// readers returns data behind each kind of reader Read meets: a
// *bytes.Reader, an *os.File at offset 0 and at a non-zero offset (both
// io.Seekers), and an io.MultiReader, which has no Seek.
func readers(t *testing.T, data []byte) map[string]io.Reader {
	return map[string]io.Reader{
		"bytes.Reader":    bytes.NewReader(data),
		"os.File":         openAt(t, nil, data),
		"os.File at 4099": openAt(t, bytes.Repeat([]byte{0xA5}, 4099), data),
		"io.MultiReader":  io.MultiReader(bytes.NewReader(data)),
	}
}

// TestReadBoundLyingProbe: a PROB header claiming more values than the
// stream holds fails with an IO error on every kind of reader, having
// allocated less than twice the stream's size — whether the section's
// declared length claims the missing values too or not. The value counts
// fall just past a power of two of 8 192-value chunks and on one, where
// regrowing a single slice by doubling would allocate about four and about
// two times the values read.
func TestReadBoundLyingProbe(t *testing.T) {
	raw := writeState(t, boundState(t))
	for _, values := range []int{33*8192 + 5, 64 * 8192} {
		for _, whole := range []bool{true, false} {
			data := lyingProbe(t, raw, values, whole)
			for name, r := range readers(t, data) {
				var err error
				got := allocated(func() { _, err = Read(r) })
				if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
					t.Errorf("%d values, whole length %v, %s: err = %v, want an unexpected EOF", values, whole, name, err)
				}
				t.Logf("%d values, whole length %v, %s: allocated %d bytes for a %d-byte stream", values, whole, name, got, len(data))
				if got >= 2*uint64(len(data)) {
					t.Errorf("%d values, whole length %v, %s: allocated %d bytes for a %d-byte stream", values, whole, name, got, len(data))
				}
			}
		}
	}
}

// TestReadSeekerMatchesStream: a well-formed snapshot reads to the same
// State through every kind of reader, and where the reader is an io.Seeker
// the probe matrix is read into its own slice (allocation within a tenth of
// the stream's size over it). The file at a non-zero offset reads only if
// the size probe put its offset back.
func TestReadSeekerMatchesStream(t *testing.T) {
	st := boundState(t)
	raw := writeState(t, st)
	want, err := Read(io.MultiReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, st) {
		t.Fatal("the state read through io.MultiReader differs from the one written")
	}
	for name, r := range readers(t, raw) {
		var got *core.State
		alloc := allocated(func() { got, err = Read(r) })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: state differs from the io.MultiReader read", name)
		}
		if _, seeks := r.(io.Seeker); seeks && alloc > uint64(len(raw))+uint64(len(raw))/10 {
			t.Errorf("%s: allocated %d bytes for a %d-byte snapshot; the probe matrix was not read in place", name, alloc, len(raw))
		}
	}
}
