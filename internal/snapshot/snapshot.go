// Package snapshot serializes a LEMP index as its catalog: the options it
// was built with, its live probes and their ids, its mutation marks and, for
// a pretuned index, the query sample its fit was made on. Everything else is
// derived on load: core.FromState is a build (§3.2) and, with a sample, a
// Pretune (§4.4).
//
// The LEMPIDX1 format is a versioned, self-describing container:
//
//	magic    [8]byte  "LEMPIDX1"
//	version  uint32   format version; this writer emits 8
//	reserved uint32   zero
//	section* — each section:
//	    tag     [4]byte
//	    length  uint64   payload bytes
//	    payload [length]byte
//	    crc32   uint32   IEEE CRC-32 of the payload
//
// All integers and floats are little endian. A version-8 stream stores each
// fact once, in these sections, in this order:
//
//	"OPTS"  the core.Options the index was built with (a fixed 85 bytes;
//	        two slots that once held BLSH settings carry their fixed
//	        values, 32 and 0.03, and one that held a placement seed 1; all
//	        three are ignored on read)
//	"PROB"  the live probe matrix (r, n, r×n float64) in scan order: the
//	        column order a Compact gives the probes (the base segment's live
//	        columns in column order, then the newer runs' live vectors by
//	        ascending id), stably sorted by decreasing length — the order the
//	        compaction's buckets hold them, so an unmutated index writes its
//	        bucket rows as they are
//	"PIDS"  probe column → external id (n × int32), always present
//	"MUTA"  optional: mutation epoch (uint64) and next AutoID assignment
//	        (int64), present when either differs from its derived default
//	"TSMP"  optional: the retained tuning sample of a pretuned index — the
//	        problem kind (topk flag), k (int64), θ (float64), then the
//	        sample matrix (r, m, r×m float64). A load pretunes on it.
//	"QNT8"  empty, present iff core.Options.Quantize (the OPTS layout
//	        predates the flag)
//	"END\0" zero-length terminator
//
// A mutated index is exported as its compaction would be, without
// compacting it, so every snapshot holds one catalog of live probes.
//
// A load recomputes every length and, where they never rise along PROB,
// takes PROB's matrix as its buckets' rows where it lies: no sort and no
// copy. Any other PROB — a version-1 to 7 file, which stored the catalog
// in column order, a file whose lengths round differently on the reading
// machine (where Norm fuses x·x+s, say), a crafted one — is sorted and
// copied into bucket rows as a build does; no file is refused for its
// order, and both paths give the same buckets.
//
// OPTS names the bucket algorithm by number: 0 LI, 1 L, 2 C, 3 I, 4 LC.
// Builds that served the paper's TA, cover-tree, L2AP and BayesLSH-Lite
// baselines as bucket algorithms numbered them 5–8; those now run only in
// the experiment harness, and a file of any version naming one is refused
// with the number, never loaded with another method in its place.
//
// Versions 1–7 are read, never written. Version 1 has OPTS, PROB, BUKT and
// END; 2 adds PIDS, MUTA and TSMP; 3 SLST; 4 PLMT; 5 QNT8; 6 drops PLMT
// again (though earlier builds still wrote it into version-6 files); 7
// drops BUKT and SLST and leaves QNT8 empty. Versions 1–7 stored PROB
// in the Compact column order, with PIDS only where the ids were not the
// column numbers. Those writers also stored what a load derives: "BUKT" the
// bucketization, with each bucket's members and its entry in a pretuned
// index's fit, "SLST" the sorted lists (§4.2) built so far, "PLMT" the
// serving layer's shard placement, and under "QNT8" the int8 sidecars. In
// any version the reader checks those four sections' checksums and discards
// their payloads — QNT8's presence still means Quantize — so no byte of
// them reaches an index.
//
// A reader fails loudly — never silently serves wrong results — on a bad
// magic, an unsupported version, a duplicate or unknown section tag, a
// checksum mismatch, a truncated stream, or any structural inconsistency in
// the sections it keeps; allocation while reading is always bounded by the
// bytes actually present, so a crafted header cannot balloon memory.
// (Unknown tags are rejected rather than skipped because the reader already
// rejects unknown versions: within an accepted stream every tag is known, so
// an unknown one is corruption — a flipped tag byte must not silently drop a
// section.)
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"math/bits"

	"lemp/internal/core"
	"lemp/internal/matrix"
)

// Magic identifies a LEMPIDX1 snapshot stream.
const Magic = "LEMPIDX1"

// Version is the format version Write emits. Read accepts 1 through Version.
const Version = 8

var (
	tagOptions = [4]byte{'O', 'P', 'T', 'S'}
	tagProbe   = [4]byte{'P', 'R', 'O', 'B'}
	tagIDs     = [4]byte{'P', 'I', 'D', 'S'}
	tagMuta    = [4]byte{'M', 'U', 'T', 'A'}
	tagTune    = [4]byte{'T', 'S', 'M', 'P'}
	tagQuant   = [4]byte{'Q', 'N', 'T', '8'}
	tagEnd     = [4]byte{'E', 'N', 'D', 0}

	// Sections of older versions, read and discarded, never written.
	tagBuckets   = [4]byte{'B', 'U', 'K', 'T'}
	tagLists     = [4]byte{'S', 'L', 'S', 'T'}
	tagPlacement = [4]byte{'P', 'L', 'M', 'T'}
)

// Dimension plausibility bounds, matching matrix.ReadBinary.
const (
	maxDim    = 1 << 20
	maxProbes = 1 << 31
)

// optionsLen is the fixed OPTS payload size: one uint32, ten 8-byte fields,
// one byte.
const optionsLen = 4 + 10*8 + 1

// The values Write puts in the two OPTS slots that held BLSH's signature
// length and false-negative rate when they were options — the settings the
// BLSH baseline of the experiment harness uses — and in the one that held
// the cluster-placement seed, its old default. Read ignores the three slots.
const (
	blshBits    = 32
	blshEpsilon = 0.03
	retiredSeed = 1
)

// identityIDs returns the ids 0..n-1, the PIDS of a state without ids.
func identityIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// isIdentity reports whether ids are the column numbers 0..len(ids)-1.
func isIdentity(ids []int32) bool {
	for i, id := range ids {
		if id != int32(i) {
			return false
		}
	}
	return true
}

// defaultNextID is the NextID value a state would derive on load anyway,
// which therefore does not need a MUTA section.
func defaultNextID(st *core.State) int32 {
	if st.IDs == nil {
		return int32(st.Probe.N())
	}
	next := int32(0)
	for _, id := range st.IDs {
		if id >= next {
			next = id + 1
		}
	}
	return next
}

// Write serializes st in the LEMPIDX1 format, always as format Version; the
// optional sections appear when the state needs them. It writes st.Probe's
// columns in the order they stand: Index.State exports them in scan order.
func Write(w io.Writer, st *core.State) error {
	if st.Probe == nil {
		return fmt.Errorf("snapshot: state has no probe matrix")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], Version)
	binary.LittleEndian.PutUint32(hdr[4:8], 0)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeSection(bw, tagOptions, optionsLen, func(w io.Writer) error {
		return writeOptions(w, st.Opts)
	}); err != nil {
		return err
	}
	probeLen := uint64(8) + 8*uint64(st.Probe.R())*uint64(st.Probe.N())
	if err := writeSection(bw, tagProbe, probeLen, func(w io.Writer) error {
		return writeProbe(w, st.Probe)
	}); err != nil {
		return err
	}
	ids := st.IDs
	if ids == nil {
		ids = identityIDs(st.Probe.N())
	}
	if err := writeSection(bw, tagIDs, 4*uint64(len(ids)), func(w io.Writer) error {
		return matrix.WriteInt32s(w, ids)
	}); err != nil {
		return err
	}
	if st.Epoch != 0 || st.NextID != defaultNextID(st) {
		if err := writeSection(bw, tagMuta, 16, func(w io.Writer) error {
			var buf [16]byte
			binary.LittleEndian.PutUint64(buf[0:8], st.Epoch)
			binary.LittleEndian.PutUint64(buf[8:16], uint64(int64(st.NextID)))
			_, err := w.Write(buf[:])
			return err
		}); err != nil {
			return err
		}
	}
	if st.TuneSample != nil {
		tuneLen := uint64(1+8+8+8) + 8*uint64(st.TuneSample.R())*uint64(st.TuneSample.N())
		if err := writeSection(bw, tagTune, tuneLen, func(w io.Writer) error {
			return writeTuneSample(w, st)
		}); err != nil {
			return err
		}
	}
	if st.Opts.Quantize {
		if err := writeSection(bw, tagQuant, 0, func(io.Writer) error { return nil }); err != nil {
			return err
		}
	}
	if err := writeSection(bw, tagEnd, 0, func(io.Writer) error { return nil }); err != nil {
		return err
	}
	return bw.Flush()
}

// writeSection frames one section: tag, declared length, the payload teed
// through a CRC-32, and the checksum.
func writeSection(bw *bufio.Writer, tag [4]byte, length uint64, payload func(io.Writer) error) error {
	if _, err := bw.Write(tag[:]); err != nil {
		return err
	}
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], length)
	if _, err := bw.Write(lenBuf[:]); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	if err := payload(io.MultiWriter(bw, crc)); err != nil {
		return err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc.Sum32())
	_, err := bw.Write(crcBuf[:])
	return err
}

func writeOptions(w io.Writer, o core.Options) error {
	buf := make([]byte, 0, optionsLen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(o.Algorithm))
	for _, v := range []int64{
		int64(o.Phi), int64(o.MaxPhi), int64(o.CacheBytes), int64(o.MinBucketSize),
	} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.ShrinkFactor))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(o.SampleQueries)))
	buf = append(buf, boolByte(o.TuneByCost))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(o.Parallelism)))
	buf = binary.LittleEndian.AppendUint64(buf, blshBits)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(blshEpsilon))
	buf = binary.LittleEndian.AppendUint64(buf, retiredSeed)
	_, err := w.Write(buf)
	return err
}

func writeProbe(w io.Writer, p *matrix.Matrix) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(p.R()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(p.N()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	return matrix.WriteFloat64s(w, p.Data())
}

// writeTuneSample emits the TSMP payload: the problem a Pretune call
// fitted (kind, k, θ) and the retained query sample.
func writeTuneSample(w io.Writer, st *core.State) error {
	var hdr [25]byte
	hdr[0] = boolByte(st.TuneProblem.K > 0)
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(int64(st.TuneProblem.K)))
	binary.LittleEndian.PutUint64(hdr[9:17], math.Float64bits(st.TuneProblem.Theta))
	binary.LittleEndian.PutUint32(hdr[17:21], uint32(st.TuneSample.R()))
	binary.LittleEndian.PutUint32(hdr[21:25], uint32(st.TuneSample.N()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	return matrix.WriteFloat64s(w, st.TuneSample.Data())
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Read parses a LEMPIDX1 stream into a core.State. It verifies the format
// version, every section checksum and the framing of the sections it keeps;
// the state's own invariants (finite probes, unique ids, a valid tuning
// sample) are verified by core.FromState, which every loader runs next.
//
// When r can tell how many bytes it holds (an io.Seeker such as an *os.File;
// Read seeks to the end and back once, before reading), a matrix whose
// values fit both its section's declared length and the bytes left is read
// straight into a slice of its size; otherwise its values are read a chunk
// at a time (matrix.ReadFloat64s). Either way allocation is bounded by the
// bytes present.
func Read(r io.Reader) (*core.State, error) {
	size, err := matrix.Remaining(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	src := &source{r: r, size: size}
	br := bufio.NewReader(src)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("snapshot: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q (not a LEMPIDX1 snapshot)", magic)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: reading header: %w", err)
	}
	version := binary.LittleEndian.Uint32(hdr[0:4])
	if version < 1 || version > Version {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (this build reads versions 1 through %d)", version, Version)
	}
	if rsv := binary.LittleEndian.Uint32(hdr[4:8]); rsv != 0 {
		return nil, fmt.Errorf("snapshot: reserved header field is %#x, want 0", rsv)
	}
	st := &core.State{}
	seen := make(map[[4]byte]bool)
	for {
		var tag [4]byte
		if _, err := io.ReadFull(br, tag[:]); err != nil {
			return nil, fmt.Errorf("snapshot: reading section tag: %w", err)
		}
		var lenBuf [8]byte
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("snapshot: reading section length: %w", err)
		}
		sr := &sectionReader{br: br, src: src, n: binary.LittleEndian.Uint64(lenBuf[:]), crc: crc32.NewIEEE()}
		if seen[tag] {
			return nil, fmt.Errorf("snapshot: duplicate %q section", tag[:])
		}
		seen[tag] = true
		var err error
		switch tag {
		case tagOptions:
			st.Opts, err = readOptions(sr)
		case tagProbe:
			st.Probe, err = readProbe(sr)
		case tagIDs:
			if st.Probe == nil {
				return nil, fmt.Errorf("snapshot: PIDS section before PROB")
			}
			st.IDs, err = readIDs(sr, st.Probe.N())
		case tagMuta:
			err = readMuta(sr, st)
		case tagTune:
			err = readTuneSample(sr, st)
		case tagBuckets, tagLists, tagPlacement, tagQuant:
			// Derived or retired: checksummed and discarded.
			_, err = io.Copy(io.Discard, sr)
		case tagEnd:
			if sr.n != 0 {
				return nil, fmt.Errorf("snapshot: END section with %d payload bytes", sr.n)
			}
			if err := sr.finish("END"); err != nil {
				return nil, err
			}
			if !seen[tagOptions] || !seen[tagProbe] {
				return nil, fmt.Errorf("snapshot: missing section (OPTS %v, PROB %v)", seen[tagOptions], seen[tagProbe])
			}
			// The fixed-size OPTS payload predates the Quantize flag;
			// presence of the QNT8 section is the persisted form of it.
			st.Opts.Quantize = seen[tagQuant]
			return st, nil
		default:
			// The reader rejects any format version it does not know, so
			// within an accepted stream every tag is known — an unknown
			// tag means corruption (e.g. a flipped tag byte would turn a
			// required or optional section into a silently skipped one).
			// A future version that appends sections must also bump the
			// version number, which this reader will refuse until taught.
			return nil, fmt.Errorf("snapshot: unknown section %q", tag[:])
		}
		if err != nil {
			return nil, fmt.Errorf("snapshot: section %q: %w", tag[:], err)
		}
		if err := sr.finish(string(tag[:])); err != nil {
			return nil, err
		}
	}
}

// readMuta parses the MUTA payload: the mutation epoch and the next AutoID
// assignment, which may be at most one past the largest possible id.
func readMuta(r io.Reader, st *core.State) error {
	var buf [16]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return err
	}
	next := int64(binary.LittleEndian.Uint64(buf[8:16]))
	if next < 0 || next > core.MaxProbeID+1 {
		return fmt.Errorf("implausible next probe id %d", next)
	}
	st.Epoch, st.NextID = binary.LittleEndian.Uint64(buf[0:8]), int32(next)
	return nil
}

// source is Read's input, counting the bytes the buffered reader pulls
// from it so that, when its size at entry is known, the bytes not yet
// consumed are too.
type source struct {
	r      io.Reader
	size   int64 // bytes r held at Read's entry; -1 when unknown
	pulled int64 // bytes read from r so far
}

func (s *source) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.pulled += int64(n)
	return n, err
}

// sectionReader bounds reads to one section's declared payload and
// accumulates its CRC-32.
type sectionReader struct {
	br  *bufio.Reader
	src *source
	n   uint64
	crc hash.Hash32
}

// holds reports whether both the section's unread payload and the input
// still hold size bytes, so that reading them may allocate up front.
func (s *sectionReader) holds(size uint64) bool {
	if s.src.size < 0 {
		return false
	}
	left := s.src.size - s.src.pulled + int64(s.br.Buffered())
	return size <= s.n && left >= 0 && size <= uint64(left)
}

func (s *sectionReader) Read(p []byte) (int, error) {
	if s.n == 0 {
		return 0, io.EOF
	}
	if uint64(len(p)) > s.n {
		p = p[:s.n]
	}
	n, err := s.br.Read(p)
	s.crc.Write(p[:n])
	s.n -= uint64(n)
	return n, err
}

// finish checks the section was fully consumed and its stored checksum
// matches the bytes read.
func (s *sectionReader) finish(tag string) error {
	if s.n != 0 {
		return fmt.Errorf("snapshot: section %q: %d declared payload bytes unused", tag, s.n)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(s.br, crcBuf[:]); err != nil {
		return fmt.Errorf("snapshot: section %q: reading checksum: %w", tag, err)
	}
	if want, got := binary.LittleEndian.Uint32(crcBuf[:]), s.crc.Sum32(); want != got {
		return fmt.Errorf("snapshot: section %q: checksum mismatch (stored %08x, computed %08x)", tag, want, got)
	}
	return nil
}

func readOptions(r io.Reader) (core.Options, error) {
	buf := make([]byte, optionsLen)
	if _, err := io.ReadFull(r, buf); err != nil {
		return core.Options{}, err
	}
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(buf[off:]) }
	o := core.Options{
		Algorithm:     core.Algorithm(binary.LittleEndian.Uint32(buf[0:4])),
		Phi:           int(int64(u64(4))),
		MaxPhi:        int(int64(u64(12))),
		CacheBytes:    int(int64(u64(20))),
		MinBucketSize: int(int64(u64(28))),
		ShrinkFactor:  math.Float64frombits(u64(36)),
		SampleQueries: int(int64(u64(44))),
		TuneByCost:    buf[52] != 0,
		Parallelism:   int(int64(u64(53))),
	}
	if name, ok := retiredAlgorithms[o.Algorithm]; ok {
		return o, fmt.Errorf("algorithm %d (LEMP-%s) is a baseline this build does not serve; rebuild the index with L, LI, LC, I or C", int(o.Algorithm), name)
	}
	return o, nil
}

// retiredAlgorithms names the OPTS algorithm numbers of the baselines that
// older builds served as bucket algorithms.
var retiredAlgorithms = map[core.Algorithm]string{5: "TA", 6: "Tree", 7: "L2AP", 8: "BLSH"}

// readProbe parses the PROB payload: the probe matrix's dimensions, then
// its values.
func readProbe(r *sectionReader) (*matrix.Matrix, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	return readMatrix(r, hdr[:], 0, "probe")
}

// readIDs parses the PIDS payload, n ids: into their slice when r holds
// them all, as readMatrix reads values, and a chunk at a time otherwise. The
// column numbers read as nil, the identity mapping of a file without PIDS.
func readIDs(r *sectionReader, n int) ([]int32, error) {
	var ids []int32
	var err error
	if r.holds(4 * uint64(n)) {
		ids = make([]int32, n)
		err = matrix.ReadInt32sInto(r, ids)
	} else {
		ids, err = matrix.ReadInt32s(r, n)
	}
	if err != nil || isIdentity(ids) {
		return nil, err
	}
	return ids, nil
}

// readTuneSample parses the TSMP payload. Dimensional plausibility is
// checked here (bounded allocation); the semantic checks — sample dimension
// versus the probe matrix, finite values, k/θ validity — are Pretune's,
// which core.FromState runs on the sample.
func readTuneSample(r *sectionReader, st *core.State) error {
	var hdr [25]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	if hdr[0] != 0 { // the kind byte selects which of k and θ counts
		st.TuneProblem.K = int(int64(binary.LittleEndian.Uint64(hdr[1:9])))
	} else {
		st.TuneProblem.Theta = math.Float64frombits(binary.LittleEndian.Uint64(hdr[9:17]))
	}
	var err error
	st.TuneSample, err = readMatrix(r, hdr[17:25], 1, "tuning sample")
	return err
}

// readMatrix reads the float64 values of a matrix whose dimensions, r then
// n as little-endian uint32s, are the 8 bytes of dims. Both must be at least
// least and within maxDim and maxProbes, and r·n values must be addressable,
// so a corrupt header cannot force an unbounded allocation. The values are
// read into the matrix's own slice when r holds them all, and a chunk at a
// time otherwise.
func readMatrix(r *sectionReader, dims []byte, least int, what string) (*matrix.Matrix, error) {
	rr := int(binary.LittleEndian.Uint32(dims[0:4]))
	n := int(binary.LittleEndian.Uint32(dims[4:8]))
	if rr < least || n < least || rr > maxDim || n > maxProbes {
		return nil, fmt.Errorf("implausible %s dimensions %d×%d", what, rr, n)
	}
	hi, lo := bits.Mul64(uint64(rr), uint64(n))
	if hi != 0 || lo > uint64(math.MaxInt)/8 {
		return nil, fmt.Errorf("%s dimensions %d×%d overflow", what, rr, n)
	}
	var data []float64
	var err error
	if r.holds(8 * lo) {
		data = make([]float64, lo)
		err = matrix.ReadFloat64sInto(r, data)
	} else {
		data, err = matrix.ReadFloat64s(r, int(lo))
	}
	if err != nil {
		return nil, err
	}
	return matrix.FromData(rr, n, data)
}
