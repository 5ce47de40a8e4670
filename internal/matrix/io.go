package matrix

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Binary format: a small self-describing container so datasets generated by
// cmd/lemp-datagen can be re-read by cmd/lemp and cmd/lemp-bench.
//
//	magic   [8]byte  "LEMPMAT1"
//	r       uint32   vector dimension
//	n       uint32   number of vectors
//	data    r*n float64, little endian, vector-major
const binaryMagic = "LEMPMAT1"

// ioChunkFloats is the number of float64 values encoded or decoded per bulk
// chunk (64 KiB of payload): large enough to amortize per-call overhead and
// to let bufio pass writes straight through, small enough to keep scratch
// buffers cache-friendly.
const ioChunkFloats = 8192

// chunkBytes sizes a scratch buffer for count values of width bytes each,
// capped at one chunk: small sections (snapshots hold one per bucket) must
// not pay a full chunk's allocation and zeroing.
func chunkBytes(count, width int) int {
	if count > ioChunkFloats {
		count = ioChunkFloats
	}
	if count < 1 {
		count = 1
	}
	return count * width
}

// WriteFloat64s writes vals as little-endian IEEE 754 bit patterns in bulk
// chunks rather than one Write per value. It is the payload encoder shared
// by the LEMPMAT1 matrix format and the LEMPIDX1 index-snapshot format.
func WriteFloat64s(w io.Writer, vals []float64) error {
	buf := make([]byte, chunkBytes(len(vals), 8))
	for len(vals) > 0 {
		c := len(vals)
		if c > ioChunkFloats {
			c = ioChunkFloats
		}
		for i, x := range vals[:c] {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
		}
		if _, err := w.Write(buf[:c*8]); err != nil {
			return err
		}
		vals = vals[c:]
	}
	return nil
}

// ReadFloat64sInto fills dst from r in bulk chunks. Callers must size dst
// from trusted information (or information validated against the input, as
// ReadBinary does); for untrusted counts use ReadFloat64s.
func ReadFloat64sInto(r io.Reader, dst []float64) error {
	buf := make([]byte, chunkBytes(len(dst), 8))
	for len(dst) > 0 {
		c := len(dst)
		if c > ioChunkFloats {
			c = ioChunkFloats
		}
		if _, err := io.ReadFull(r, buf[:c*8]); err != nil {
			return err
		}
		for i := range dst[:c] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		dst = dst[c:]
	}
	return nil
}

// ReadFloat64s reads count values from r, growing the result incrementally
// so that a header lying about its size fails with an IO error after
// consuming only the bytes actually present — the claimed count is never
// allocated up front.
func ReadFloat64s(r io.Reader, count int) ([]float64, error) {
	if count < 0 {
		return nil, fmt.Errorf("matrix: negative value count %d", count)
	}
	cap0 := count
	if cap0 > ioChunkFloats {
		cap0 = ioChunkFloats
	}
	out := make([]float64, 0, cap0)
	buf := make([]byte, chunkBytes(count, 8))
	for len(out) < count {
		c := count - len(out)
		if c > ioChunkFloats {
			c = ioChunkFloats
		}
		if _, err := io.ReadFull(r, buf[:c*8]); err != nil {
			return nil, err
		}
		base := len(out)
		out = growDoubling(out, c, count)[:base+c]
		for i := 0; i < c; i++ {
			out[base+i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
	}
	return out, nil
}

// growDoubling makes room for c more elements in s, which will hold count
// in the end: at least doubling its capacity when it grows, but never past
// count. append's growth for large slices is a quarter, so a read of a few
// hundred MiB would copy what it has read about four times over; doubling
// copies it at most once, and what a lying count can make it allocate stays
// within twice the values actually read.
func growDoubling[T any](s []T, c, count int) []T {
	if cap(s)-len(s) >= c {
		return s
	}
	return slices.Grow(s, min(max(c, len(s)), count-len(s)))
}

// WriteInt32s writes vals as little-endian int32 bit patterns in bulk
// chunks; the id-array counterpart of WriteFloat64s.
func WriteInt32s(w io.Writer, vals []int32) error {
	buf := make([]byte, chunkBytes(len(vals), 4))
	chunk := len(buf) / 4
	for len(vals) > 0 {
		c := len(vals)
		if c > chunk {
			c = chunk
		}
		for i, v := range vals[:c] {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(v))
		}
		if _, err := w.Write(buf[:c*4]); err != nil {
			return err
		}
		vals = vals[c:]
	}
	return nil
}

// ReadInt32s reads count values with the same bounded incremental
// allocation as ReadFloat64s: a lying header fails at the first missing
// byte instead of allocating the claimed size up front.
func ReadInt32s(r io.Reader, count int) ([]int32, error) {
	if count < 0 {
		return nil, fmt.Errorf("matrix: negative value count %d", count)
	}
	cap0 := count
	if cap0 > ioChunkFloats {
		cap0 = ioChunkFloats
	}
	out := make([]int32, 0, cap0)
	buf := make([]byte, chunkBytes(count, 4))
	chunk := len(buf) / 4
	for len(out) < count {
		c := count - len(out)
		if c > chunk {
			c = chunk
		}
		if _, err := io.ReadFull(r, buf[:c*4]); err != nil {
			return nil, err
		}
		base := len(out)
		out = growDoubling(out, c, count)[:base+c]
		for i := 0; i < c; i++ {
			out[base+i] = int32(binary.LittleEndian.Uint32(buf[i*4:]))
		}
	}
	return out, nil
}

// WriteBinary writes m in the LEMPMAT1 binary format.
func WriteBinary(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(m.R()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(m.N()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if err := WriteFloat64s(bw, m.Data()); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary reads a matrix in the LEMPMAT1 binary format.
//
// The 16-byte header is untrusted input: the claimed r×n is bounds-checked,
// the multiplication is overflow-guarded, and the implied data size is
// validated against the bytes actually remaining when r is seekable (a
// file). For non-seekable inputs the data slice grows incrementally, so a
// crafted header cannot trigger a multi-terabyte allocation — reading stops
// at the first missing byte.
func ReadBinary(r io.Reader) (*Matrix, error) {
	// Measure the remaining input before any buffered reads.
	remaining := int64(-1)
	if s, ok := r.(io.Seeker); ok {
		if cur, err := s.Seek(0, io.SeekCurrent); err == nil {
			end, err := s.Seek(0, io.SeekEnd)
			if err == nil {
				if _, err := s.Seek(cur, io.SeekStart); err != nil {
					return nil, fmt.Errorf("matrix: rewinding input: %w", err)
				}
				remaining = end - cur
			}
		}
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("matrix: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("matrix: bad magic %q", magic)
	}
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("matrix: reading header: %w", err)
	}
	rr := int(binary.LittleEndian.Uint32(hdr[0:4]))
	n := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if rr < 0 || n < 0 || rr > 1<<20 || n > 1<<31 {
		return nil, fmt.Errorf("matrix: implausible dimensions %d×%d", rr, n)
	}
	hi, lo := bits.Mul64(uint64(rr), uint64(n))
	if hi != 0 || lo > uint64(math.MaxInt)/8 {
		return nil, fmt.Errorf("matrix: dimensions %d×%d overflow", rr, n)
	}
	total := int(lo)
	if remaining >= 0 {
		need := int64(len(binaryMagic)+len(hdr)) + int64(total)*8
		if need > remaining {
			return nil, fmt.Errorf("matrix: header claims %d×%d (%d bytes) but only %d bytes of input remain", rr, n, need, remaining)
		}
		data := make([]float64, total)
		if err := ReadFloat64sInto(br, data); err != nil {
			return nil, fmt.Errorf("matrix: reading data: %w", err)
		}
		return FromData(rr, n, data)
	}
	data, err := ReadFloat64s(br, total)
	if err != nil {
		return nil, fmt.Errorf("matrix: reading data: %w", err)
	}
	return FromData(rr, n, data)
}

// WriteCSV writes one vector per line, comma-separated, full float64
// round-trip precision.
func WriteCSV(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < m.N(); i++ {
		v := m.Vec(i)
		for j, x := range v {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(x, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV reads a matrix written by WriteCSV (or any comma-separated file of
// equal-length float rows). Blank lines are skipped.
func ReadCSV(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var vecs [][]float64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		v := make([]float64, len(fields))
		for i, f := range fields {
			x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("matrix: line %d field %d: %w", line, i+1, err)
			}
			v[i] = x
		}
		vecs = append(vecs, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromVectors(vecs)
}
