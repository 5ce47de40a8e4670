package matrix

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"unsafe"
)

// Binary format: a small self-describing container so datasets generated by
// cmd/lemp-datagen can be re-read by cmd/lemp and cmd/lemp-bulk.
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
// capped at one chunk: small payloads (a short id list, a few-query sample)
// must not pay a full chunk's allocation and zeroing.
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
// chunks: on a little-endian machine the values' own bytes, elsewhere bytes
// encoded one value at a time. It is the payload encoder shared
// by the LEMPMAT1 matrix format and the LEMPIDX1 index-snapshot format.
func WriteFloat64s(w io.Writer, vals []float64) error {
	if littleEndian {
		return writeChunks(w, asBytes(vals))
	}
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

// littleEndian reports whether this machine stores float64s and int32s in
// the byte order of the formats read and written here, so that their bytes
// can be read into and written from the values' memory as they are. A
// variable so that tests can drive the encoding and decoding loops on any
// machine.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// writeChunks writes b in Writes of one chunk's bytes (64 KiB), as the
// encoding loops do: a writer that passes its input on twice, such as a
// file beside a checksum, then reads each chunk from cache the second time.
func writeChunks(w io.Writer, b []byte) error {
	for len(b) > 0 {
		c := min(len(b), 8*ioChunkFloats)
		if _, err := w.Write(b[:c]); err != nil {
			return err
		}
		b = b[c:]
	}
	return nil
}

// asBytes returns the memory of s as bytes.
func asBytes[T float64 | int32](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

// ReadFloat64sInto fills dst from r: on a little-endian machine by reading
// the bytes straight into dst's memory, elsewhere in bulk chunks decoded
// one value at a time. Callers must size dst from trusted information (or
// information validated against the input, as ReadBinary does); for
// untrusted counts use ReadFloat64s.
func ReadFloat64sInto(r io.Reader, dst []float64) error {
	if littleEndian {
		_, err := io.ReadFull(r, asBytes(dst))
		return err
	}
	buf := make([]byte, chunkBytes(len(dst), 8))
	for len(dst) > 0 {
		c := min(len(dst), ioChunkFloats)
		if _, err := io.ReadFull(r, buf[:c*8]); err != nil {
			return err
		}
		decodeFloat64s(dst, buf[:c*8])
		dst = dst[c:]
	}
	return nil
}

// ReadFloat64s reads count values from r without trusting count: a header
// lying about its size fails with an IO error having allocated about the
// bytes actually present (see readBlocks).
func ReadFloat64s(r io.Reader, count int) ([]float64, error) {
	return readBlocks(r, count, 8, decodeFloat64s)
}

// readBlocks reads count values of width bytes each into blocks of at most
// ioChunkFloats values, allocating each block only as its bytes arrive, and
// decodes the blocks once into a result of exactly count values when all are
// in. A count that overstates the input therefore fails at the first missing
// byte having allocated the bytes read plus one block — never the claimed
// size, nor the up to four times the bytes read that regrowing one slice
// by doubling would allocate in all.
func readBlocks[T any](r io.Reader, count, width int, decode func([]T, []byte)) ([]T, error) {
	if count < 0 {
		return nil, fmt.Errorf("matrix: negative value count %d", count)
	}
	var blocks [][]byte
	for left := count; left > 0; {
		b := make([]byte, min(left, ioChunkFloats)*width)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		blocks = append(blocks, b)
		left -= len(b) / width
	}
	out := make([]T, count)
	for i, b := range blocks {
		decode(out[i*ioChunkFloats:], b)
	}
	return out, nil
}

// decodeFloat64s decodes the little-endian float64s of src into dst.
func decodeFloat64s(dst []float64, src []byte) {
	dst = dst[:len(src)/8]
	if littleEndian {
		copy(asBytes(dst), src)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
}

// decodeInt32s decodes the little-endian int32s of src into dst.
func decodeInt32s(dst []int32, src []byte) {
	dst = dst[:len(src)/4]
	if littleEndian {
		copy(asBytes(dst), src)
		return
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(src[i*4:]))
	}
}

// WriteInt32s writes vals as little-endian int32 bit patterns, as
// WriteFloat64s does; the id-array counterpart of WriteFloat64s.
func WriteInt32s(w io.Writer, vals []int32) error {
	if littleEndian {
		return writeChunks(w, asBytes(vals))
	}
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

// ReadInt32s reads count values with ReadFloat64s' bounded allocation: a
// lying header fails at the first missing byte instead of allocating the
// claimed size up front.
func ReadInt32s(r io.Reader, count int) ([]int32, error) {
	return readBlocks(r, count, 4, decodeInt32s)
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

// Remaining returns how many bytes r holds from its current offset, or -1
// when it cannot tell: r is no io.Seeker, or seeking fails, as on a pipe. It
// seeks to the end and back, so call it before any buffered read of r; an
// error means the offset could not be restored.
func Remaining(r io.Reader) (int64, error) {
	s, ok := r.(io.Seeker)
	if !ok {
		return -1, nil
	}
	cur, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return -1, nil
	}
	end, errEnd := s.Seek(0, io.SeekEnd)
	if _, err := s.Seek(cur, io.SeekStart); err != nil {
		return -1, fmt.Errorf("matrix: rewinding input: %w", err)
	}
	if errEnd != nil {
		return -1, nil
	}
	return max(end-cur, 0), nil
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
	remaining, err := Remaining(r)
	if err != nil {
		return nil, err
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
