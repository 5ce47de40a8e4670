// Package snapshot serializes a LEMP index so a server can restart in
// O(read) instead of re-paying the preprocessing of Algorithm 1 — the
// bucketization of §3.2 and, when the index was pretuned, the sample-based
// parameter selection of §4.4.
//
// The LEMPIDX1 format is a versioned, self-describing container:
//
//	magic    [8]byte  "LEMPIDX1"
//	version  uint32   format version 1–5: the lowest defining every section written
//	reserved uint32   zero
//	section* — each section:
//	    tag     [4]byte
//	    length  uint64   payload bytes
//	    payload [length]byte
//	    crc32   uint32   IEEE CRC-32 of the payload
//
// All integers and floats are little endian. Version 1 defines four
// sections, written in this order:
//
//	"OPTS"  the core.Options the index was built with
//	"PROB"  the probe matrix (r, n, r×n float64)
//	"BUKT"  the bucketization: pretuned flag, then per bucket its tuning
//	        state (tuned, t_b, φ_b) and membership (ids, lengths,
//	        normalized directions)
//	"END\0" zero-length terminator
//
// Version 2 adds three optional sections between PROB and BUKT. PIDS and
// MUTA carry the external-id state of a mutated (dynamically updated)
// index; mutated indexes are compacted on save — the delta layer folds into
// a fresh bucketization with ids preserved — so the sections are small and
// the BUKT layout stays identical. TSMP retains a pretuned index's tuning
// sample so a restored index can re-freeze fitted parameters after a
// Compact:
//
//	"PIDS"  probe column → external id (n × int32), present when the ids
//	        are not the column numbers
//	"MUTA"  mutation epoch (uint64) and next AutoID assignment (int64),
//	        present when either differs from its derived default
//	"TSMP"  the retained tuning sample of a pretuned index: problem kind
//	        (topk flag), k (int64), θ (float64), then the sample matrix
//	        (r, m, r×m float64)
//
// Version 3 adds one optional section after BUKT:
//
//	"SLST"  the lazily built per-bucket sorted-list indexes (§4.2): per
//	        bucket a presence byte, then — when present — the coordinate-
//	        major value array (size × r float64) and local-id array
//	        (size × r int32). Persisting them lets a restored server's
//	        first batch skip the rebuild that dominates post-restore
//	        latency; core.FromState re-verifies them against the bucket
//	        directions, so a tampered list index fails to load. The
//	        section is opt-in (WriteOptions.IncludeLists) because it
//	        roughly doubles snapshot size.
//
// Version 4 adds one optional section after BUKT (and SLST, when present):
//
//	"PLMT"  shard-placement metadata for the serving layer: the placement
//	        strategy name (length-prefixed), then a cone flag. Builds that
//	        pruned whole shards by direction wrote flag 1 and a direction
//	        cone after it (uint32 centroid length 0 or r, the centroid,
//	        cos of the angular radius, maximum live probe length); cone
//	        bytes are read and skipped, never written — this writer emits
//	        flag 0. A snapshot without the section restores as
//	        range-placed.
//
// Version 5 adds one optional section after BUKT (and SLST/PLMT, when
// present):
//
//	"QNT8"  the quantized screening sidecar (internal/quant,
//	        core.Options.Quantize): per bucket a presence byte, then —
//	        when present — the per-row scales (size × float64), the
//	        residual-norm bounds (size × float64) and the int8 codes
//	        (size × r bytes). Presence of the section implies
//	        Options.Quantize on load (the fixed-size OPTS payload predates
//	        the flag); core.FromState re-verifies the sidecar against the
//	        bucket directions — quantization is deterministic — so a
//	        tampered sidecar fails to load instead of mis-screening. A
//	        snapshot without the section loads with screening off; loaders
//	        can force it back on (lemp.LoadOptions), which rebuilds the
//	        sidecar from the directions.
//
// A writer emits version 1 whenever none of the optional sections is
// needed, so plain snapshots stay byte-compatible with version-1 readers.
//
// A reader fails loudly — never silently serves wrong results — on a bad
// magic, an unsupported version, an unknown section tag, a checksum
// mismatch, a truncated stream, or any structural inconsistency; allocation
// while reading is always bounded by the bytes actually present, so a
// crafted header cannot balloon memory. (Unknown tags are rejected rather
// than skipped because the reader already rejects unknown versions: within
// an accepted stream every tag is known, so an unknown one is corruption —
// a flipped tag byte must not silently drop a section.)
//
// Other lazily built per-bucket indexes (cover trees, L2AP, signatures)
// are intentionally not persisted: they are cheap relative to
// bucketization, query-dependent, and rebuilt lazily after a restore.
// Sorted lists earned their optional section because every coordinate
// method needs them and their rebuild dominates a restored server's first
// batch.
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

// Version is the base format version; VersionIDs is emitted when the
// external-id sections (PIDS/MUTA/TSMP) are present, VersionLists when the
// sorted-list section (SLST) is, VersionPlacement when the placement
// section (PLMT) is, VersionQuant when the quantized sidecar (QNT8) is.
const (
	Version          = 1
	VersionIDs       = 2
	VersionLists     = 3
	VersionPlacement = 4
	VersionQuant     = 5
)

var (
	tagOptions   = [4]byte{'O', 'P', 'T', 'S'}
	tagProbe     = [4]byte{'P', 'R', 'O', 'B'}
	tagIDs       = [4]byte{'P', 'I', 'D', 'S'}
	tagMuta      = [4]byte{'M', 'U', 'T', 'A'}
	tagTune      = [4]byte{'T', 'S', 'M', 'P'}
	tagBuckets   = [4]byte{'B', 'U', 'K', 'T'}
	tagLists     = [4]byte{'S', 'L', 'S', 'T'}
	tagPlacement = [4]byte{'P', 'L', 'M', 'T'}
	tagQuant     = [4]byte{'Q', 'N', 'T', '8'}
	tagEnd       = [4]byte{'E', 'N', 'D', 0}
)

// maxPlacementKind bounds the placement-strategy name in a PLMT section; a
// longer one is corruption, not a strategy.
const maxPlacementKind = 64

// Dimension plausibility bounds, matching matrix.ReadBinary.
const (
	maxDim    = 1 << 20
	maxProbes = 1 << 31
)

// optionsLen is the fixed OPTS payload size: one uint32, ten 8-byte fields,
// one byte.
const optionsLen = 4 + 10*8 + 1

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

// WriteOptions adjust what Write persists beyond the required sections.
type WriteOptions struct {
	// IncludeLists persists the per-bucket sorted-list indexes that have
	// been built so far (SLST section, format version 3), trading snapshot
	// size for a restored server that skips the first-use list rebuild.
	// Buckets whose lists were never built are recorded as absent and
	// still rebuild lazily after restore.
	IncludeLists bool
}

// Write serializes st in the LEMPIDX1 format with default options (no
// SLST section).
func Write(w io.Writer, st *core.State) error {
	return WriteWith(w, st, WriteOptions{})
}

// WriteWith is Write with explicit options. The header carries the lowest
// version that defines every section written: 1 with none of the optional
// ones, 2 with PIDS, MUTA or TSMP, 3 with SLST (opted into by
// WriteOptions.IncludeLists and written only when some list is built), 4
// with PLMT, 5 with QNT8.
func WriteWith(w io.Writer, st *core.State, opts WriteOptions) error {
	if st.Probe == nil {
		return fmt.Errorf("snapshot: state has no probe matrix")
	}
	writeMuta := st.Epoch != 0 || st.NextID != defaultNextID(st)
	writeTune := st.Pretuned && st.TuneSample != nil
	writeLists := false
	if opts.IncludeLists {
		for _, b := range st.Buckets {
			if b.ListVals != nil {
				writeLists = true
				break
			}
		}
	}
	writeQuant := false
	for _, b := range st.Buckets {
		if b.QuantScales != nil {
			writeQuant = true
			break
		}
	}
	writePlmt := st.PlacementKind != ""
	if len(st.PlacementKind) > maxPlacementKind {
		return fmt.Errorf("snapshot: placement kind %q longer than %d bytes", st.PlacementKind, maxPlacementKind)
	}
	version := uint32(Version)
	if st.IDs != nil || writeMuta || writeTune {
		version = VersionIDs
	}
	if writeLists {
		version = VersionLists
	}
	if writePlmt {
		version = VersionPlacement
	}
	if writeQuant {
		version = VersionQuant
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], version)
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
	if st.IDs != nil {
		if err := writeSection(bw, tagIDs, 4*uint64(len(st.IDs)), func(w io.Writer) error {
			return matrix.WriteInt32s(w, st.IDs)
		}); err != nil {
			return err
		}
	}
	if writeMuta {
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
	if writeTune {
		tuneLen := uint64(1+8+8+8) + 8*uint64(st.TuneSample.R())*uint64(st.TuneSample.N())
		if err := writeSection(bw, tagTune, tuneLen, func(w io.Writer) error {
			return writeTuneSample(w, st)
		}); err != nil {
			return err
		}
	}
	bucketsLen := uint64(5)
	r := uint64(st.Probe.R())
	for _, b := range st.Buckets {
		s := uint64(len(b.IDs))
		bucketsLen += 21 + 4*s + 8*s + 8*s*r
	}
	if err := writeSection(bw, tagBuckets, bucketsLen, func(w io.Writer) error {
		return writeBuckets(w, st)
	}); err != nil {
		return err
	}
	if writeLists {
		listsLen := uint64(len(st.Buckets))
		for _, b := range st.Buckets {
			if b.ListVals != nil {
				listsLen += 8*uint64(len(b.ListVals)) + 4*uint64(len(b.ListLids))
			}
		}
		if err := writeSection(bw, tagLists, listsLen, func(w io.Writer) error {
			return writeSortedLists(w, st)
		}); err != nil {
			return err
		}
	}
	if writePlmt {
		plmtLen := uint64(1+len(st.PlacementKind)) + 1
		if err := writeSection(bw, tagPlacement, plmtLen, func(w io.Writer) error {
			return writePlacement(w, st)
		}); err != nil {
			return err
		}
	}
	if writeQuant {
		quantLen := uint64(len(st.Buckets))
		r := uint64(st.Probe.R())
		for _, b := range st.Buckets {
			if b.QuantScales != nil {
				s := uint64(len(b.QuantScales))
				quantLen += 8*s + 8*s + s*r
			}
		}
		if err := writeSection(bw, tagQuant, quantLen, func(w io.Writer) error {
			return writeQuantSidecar(w, st)
		}); err != nil {
			return err
		}
	}
	if err := writeSection(bw, tagEnd, 0, func(io.Writer) error { return nil }); err != nil {
		return err
	}
	return bw.Flush()
}

// writeQuantSidecar emits the QNT8 payload: one presence byte per bucket,
// then the present buckets' scales, residual bounds and int8 codes.
func writeQuantSidecar(w io.Writer, st *core.State) error {
	for _, b := range st.Buckets {
		present := byte(0)
		if b.QuantScales != nil {
			present = 1
		}
		if _, err := w.Write([]byte{present}); err != nil {
			return err
		}
		if present == 0 {
			continue
		}
		if err := matrix.WriteFloat64s(w, b.QuantScales); err != nil {
			return err
		}
		if err := matrix.WriteFloat64s(w, b.QuantResid); err != nil {
			return err
		}
		if err := matrix.WriteInt8s(w, b.QuantCodes); err != nil {
			return err
		}
	}
	return nil
}

// readQuantSidecar parses the QNT8 payload into the already-read bucket
// states. Allocation is bounded by the declared bucket sizes; semantic
// verification (exact agreement with re-quantized directions) runs in
// core.FromState.
func readQuantSidecar(r io.Reader, st *core.State) error {
	dim := st.Probe.R()
	for i := range st.Buckets {
		var present [1]byte
		if _, err := io.ReadFull(r, present[:]); err != nil {
			return fmt.Errorf("bucket %d sidecar flag: %w", i, err)
		}
		switch present[0] {
		case 0:
			continue
		case 1:
		default:
			return fmt.Errorf("bucket %d sidecar flag is %d, want 0 or 1", i, present[0])
		}
		size := len(st.Buckets[i].IDs)
		var err error
		if st.Buckets[i].QuantScales, err = matrix.ReadFloat64s(r, size); err != nil {
			return fmt.Errorf("bucket %d sidecar scales: %w", i, err)
		}
		if st.Buckets[i].QuantResid, err = matrix.ReadFloat64s(r, size); err != nil {
			return fmt.Errorf("bucket %d sidecar residuals: %w", i, err)
		}
		if st.Buckets[i].QuantCodes, err = matrix.ReadInt8s(r, size*dim); err != nil {
			return fmt.Errorf("bucket %d sidecar codes: %w", i, err)
		}
	}
	return nil
}

// writeSortedLists emits the SLST payload: one presence byte per bucket, then
// the present buckets' value and local-id arrays.
func writeSortedLists(w io.Writer, st *core.State) error {
	for _, b := range st.Buckets {
		present := byte(0)
		if b.ListVals != nil {
			present = 1
		}
		if _, err := w.Write([]byte{present}); err != nil {
			return err
		}
		if present == 0 {
			continue
		}
		if err := matrix.WriteFloat64s(w, b.ListVals); err != nil {
			return err
		}
		if err := matrix.WriteInt32s(w, b.ListLids); err != nil {
			return err
		}
	}
	return nil
}

// writePlacement emits the PLMT payload: the placement kind (length-
// prefixed) and a zero cone flag.
func writePlacement(w io.Writer, st *core.State) error {
	buf := make([]byte, 0, 2+len(st.PlacementKind))
	buf = append(buf, byte(len(st.PlacementKind)))
	buf = append(buf, st.PlacementKind...)
	buf = append(buf, 0)
	_, err := w.Write(buf)
	return err
}

// readPlacement parses the PLMT payload. A cone written by an older build
// (flag 1) is skipped: its centroid length must be 0 or the probe
// dimension, and its bytes stay under the section's length and checksum.
func readPlacement(r io.Reader, st *core.State) error {
	var kindLen [1]byte
	if _, err := io.ReadFull(r, kindLen[:]); err != nil {
		return err
	}
	if int(kindLen[0]) > maxPlacementKind {
		return fmt.Errorf("placement kind length %d exceeds %d", kindLen[0], maxPlacementKind)
	}
	kind := make([]byte, kindLen[0])
	if _, err := io.ReadFull(r, kind); err != nil {
		return err
	}
	st.PlacementKind = string(kind)
	var present [1]byte
	if _, err := io.ReadFull(r, present[:]); err != nil {
		return err
	}
	switch present[0] {
	case 0:
		return nil
	case 1:
	default:
		return fmt.Errorf("cone flag is %d, want 0 or 1", present[0])
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	clen := int64(binary.LittleEndian.Uint32(hdr[:]))
	if clen != 0 && clen != int64(st.Probe.R()) {
		return fmt.Errorf("cone centroid has dimension %d, probe matrix %d", clen, st.Probe.R())
	}
	_, err := io.CopyN(io.Discard, r, 8*clen+16)
	return err
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
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(o.SignatureBits)))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.Epsilon))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(o.Seed))
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

func writeBuckets(w io.Writer, st *core.State) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(st.Buckets)))
	hdr[4] = boolByte(st.Pretuned)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, b := range st.Buckets {
		var bh [21]byte
		binary.LittleEndian.PutUint32(bh[0:4], uint32(len(b.IDs)))
		bh[4] = boolByte(b.Tuned)
		binary.LittleEndian.PutUint64(bh[5:13], math.Float64bits(b.TB))
		binary.LittleEndian.PutUint64(bh[13:21], uint64(int64(b.Phi)))
		if _, err := w.Write(bh[:]); err != nil {
			return err
		}
		if err := matrix.WriteInt32s(w, b.IDs); err != nil {
			return err
		}
		if err := matrix.WriteFloat64s(w, b.Lens); err != nil {
			return err
		}
		if err := matrix.WriteFloat64s(w, b.Dirs); err != nil {
			return err
		}
	}
	return nil
}

// readSortedLists parses the SLST payload into the already-read bucket
// states. Allocation is bounded by the declared bucket sizes; semantic
// verification (permutation, sortedness, value agreement with the
// directions) runs in core.FromState.
func readSortedLists(r io.Reader, st *core.State) error {
	dim := st.Probe.R()
	for i := range st.Buckets {
		var present [1]byte
		if _, err := io.ReadFull(r, present[:]); err != nil {
			return fmt.Errorf("bucket %d list flag: %w", i, err)
		}
		switch present[0] {
		case 0:
			continue
		case 1:
		default:
			return fmt.Errorf("bucket %d list flag is %d, want 0 or 1", i, present[0])
		}
		n := len(st.Buckets[i].IDs) * dim
		var err error
		if st.Buckets[i].ListVals, err = matrix.ReadFloat64s(r, n); err != nil {
			return fmt.Errorf("bucket %d list values: %w", i, err)
		}
		if st.Buckets[i].ListLids, err = matrix.ReadInt32s(r, n); err != nil {
			return fmt.Errorf("bucket %d list ids: %w", i, err)
		}
	}
	return nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Read parses a LEMPIDX1 stream into a core.State. It verifies the format
// version and every section checksum; structural invariants of the state
// itself (id uniqueness, length ordering, …) are verified by
// core.FromState, which every loader runs next.
func Read(r io.Reader) (*core.State, error) {
	br := bufio.NewReader(r)
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
	if v := binary.LittleEndian.Uint32(hdr[0:4]); v < Version || v > VersionQuant {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (this build reads versions %d through %d)", v, Version, VersionQuant)
	}
	if rsv := binary.LittleEndian.Uint32(hdr[4:8]); rsv != 0 {
		return nil, fmt.Errorf("snapshot: reserved header field is %#x, want 0", rsv)
	}
	st := &core.State{}
	var haveOpts, haveProbe, haveBuckets, haveIDs, haveMuta, haveTune, haveLists, havePlmt, haveQuant bool
	for {
		var tag [4]byte
		if _, err := io.ReadFull(br, tag[:]); err != nil {
			return nil, fmt.Errorf("snapshot: reading section tag: %w", err)
		}
		var lenBuf [8]byte
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("snapshot: reading section length: %w", err)
		}
		sr := &sectionReader{br: br, n: binary.LittleEndian.Uint64(lenBuf[:]), crc: crc32.NewIEEE()}
		var err error
		switch tag {
		case tagOptions:
			if haveOpts {
				return nil, fmt.Errorf("snapshot: duplicate OPTS section")
			}
			haveOpts = true
			st.Opts, err = readOptions(sr)
		case tagProbe:
			if haveProbe {
				return nil, fmt.Errorf("snapshot: duplicate PROB section")
			}
			haveProbe = true
			st.Probe, err = readProbe(sr)
		case tagIDs:
			if haveIDs {
				return nil, fmt.Errorf("snapshot: duplicate PIDS section")
			}
			if !haveProbe {
				return nil, fmt.Errorf("snapshot: PIDS section before PROB")
			}
			haveIDs = true
			st.IDs, err = matrix.ReadInt32s(sr, st.Probe.N())
		case tagMuta:
			if haveMuta {
				return nil, fmt.Errorf("snapshot: duplicate MUTA section")
			}
			haveMuta = true
			var buf [16]byte
			if _, err = io.ReadFull(sr, buf[:]); err == nil {
				st.Epoch = binary.LittleEndian.Uint64(buf[0:8])
				next := int64(binary.LittleEndian.Uint64(buf[8:16]))
				if next < 0 || next > maxProbes {
					return nil, fmt.Errorf("snapshot: implausible next probe id %d", next)
				}
				st.NextID = int32(next)
			}
		case tagTune:
			if haveTune {
				return nil, fmt.Errorf("snapshot: duplicate TSMP section")
			}
			haveTune = true
			err = readTuneSample(sr, st)
		case tagBuckets:
			if haveBuckets {
				return nil, fmt.Errorf("snapshot: duplicate BUKT section")
			}
			if !haveProbe {
				return nil, fmt.Errorf("snapshot: BUKT section before PROB")
			}
			haveBuckets = true
			err = readBuckets(sr, st)
		case tagLists:
			if haveLists {
				return nil, fmt.Errorf("snapshot: duplicate SLST section")
			}
			if !haveBuckets {
				return nil, fmt.Errorf("snapshot: SLST section before BUKT")
			}
			haveLists = true
			err = readSortedLists(sr, st)
		case tagPlacement:
			if havePlmt {
				return nil, fmt.Errorf("snapshot: duplicate PLMT section")
			}
			if !haveProbe {
				return nil, fmt.Errorf("snapshot: PLMT section before PROB")
			}
			havePlmt = true
			err = readPlacement(sr, st)
		case tagQuant:
			if haveQuant {
				return nil, fmt.Errorf("snapshot: duplicate QNT8 section")
			}
			if !haveBuckets {
				return nil, fmt.Errorf("snapshot: QNT8 section before BUKT")
			}
			haveQuant = true
			// The fixed-size OPTS payload predates the Quantize flag;
			// presence of the sidecar section is the persisted form of it.
			st.Opts.Quantize = true
			err = readQuantSidecar(sr, st)
		case tagEnd:
			if sr.n != 0 {
				return nil, fmt.Errorf("snapshot: END section with %d payload bytes", sr.n)
			}
			if err := sr.finish("END"); err != nil {
				return nil, err
			}
			if !haveOpts || !haveProbe || !haveBuckets {
				return nil, fmt.Errorf("snapshot: missing section (OPTS %v, PROB %v, BUKT %v)", haveOpts, haveProbe, haveBuckets)
			}
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

// sectionReader bounds reads to one section's declared payload and
// accumulates its CRC-32.
type sectionReader struct {
	br  *bufio.Reader
	n   uint64
	crc hash.Hash32
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
		SignatureBits: int(int64(u64(61))),
		Epsilon:       math.Float64frombits(u64(69)),
		Seed:          int64(u64(77)),
	}
	return o, nil
}

func readProbe(r io.Reader) (*matrix.Matrix, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	rr := int(binary.LittleEndian.Uint32(hdr[0:4]))
	n := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if rr < 0 || n < 0 || rr > maxDim || n > maxProbes {
		return nil, fmt.Errorf("implausible probe dimensions %d×%d", rr, n)
	}
	hi, lo := bits.Mul64(uint64(rr), uint64(n))
	if hi != 0 || lo > uint64(math.MaxInt)/8 {
		return nil, fmt.Errorf("probe dimensions %d×%d overflow", rr, n)
	}
	data, err := matrix.ReadFloat64s(r, int(lo))
	if err != nil {
		return nil, err
	}
	return matrix.FromData(rr, n, data)
}

// readTuneSample parses the TSMP payload. Dimensional plausibility is
// checked here (bounded allocation); the semantic checks — sample dimension
// versus the probe matrix, k/θ validity — run in core.FromState.
func readTuneSample(r io.Reader, st *core.State) error {
	var hdr [25]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	if hdr[0] != 0 { // the kind byte selects which of k and θ counts
		st.TuneProblem.K = int(int64(binary.LittleEndian.Uint64(hdr[1:9])))
	} else {
		st.TuneProblem.Theta = math.Float64frombits(binary.LittleEndian.Uint64(hdr[9:17]))
	}
	rr := int(binary.LittleEndian.Uint32(hdr[17:21]))
	m := int(binary.LittleEndian.Uint32(hdr[21:25]))
	if rr < 1 || m < 1 || rr > maxDim || m > maxProbes {
		return fmt.Errorf("implausible tuning sample dimensions %d×%d", rr, m)
	}
	hi, lo := bits.Mul64(uint64(rr), uint64(m))
	if hi != 0 || lo > uint64(math.MaxInt)/8 {
		return fmt.Errorf("tuning sample dimensions %d×%d overflow", rr, m)
	}
	data, err := matrix.ReadFloat64s(r, int(lo))
	if err != nil {
		return err
	}
	st.TuneSample, err = matrix.FromData(rr, m, data)
	return err
}

func readBuckets(r io.Reader, st *core.State) error {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	numBuckets := int(binary.LittleEndian.Uint32(hdr[0:4]))
	st.Pretuned = hdr[4] != 0
	n, dim := st.Probe.N(), st.Probe.R()
	if numBuckets < 0 || numBuckets > n {
		return fmt.Errorf("%d buckets for %d probes", numBuckets, n)
	}
	st.Buckets = make([]core.BucketState, 0, numBuckets)
	total := 0
	for i := 0; i < numBuckets; i++ {
		var bh [21]byte
		if _, err := io.ReadFull(r, bh[:]); err != nil {
			return fmt.Errorf("bucket %d header: %w", i, err)
		}
		size := int(binary.LittleEndian.Uint32(bh[0:4]))
		if size < 1 || total+size > n {
			return fmt.Errorf("bucket %d size %d exceeds %d probes", i, size, n)
		}
		total += size
		b := core.BucketState{
			Tuned: bh[4] != 0,
			TB:    math.Float64frombits(binary.LittleEndian.Uint64(bh[5:13])),
			Phi:   int(int64(binary.LittleEndian.Uint64(bh[13:21]))),
		}
		if b.Phi < 0 || b.Phi > maxDim {
			return fmt.Errorf("bucket %d phi %d out of range", i, b.Phi)
		}
		var err error
		if b.IDs, err = matrix.ReadInt32s(r, size); err != nil {
			return fmt.Errorf("bucket %d ids: %w", i, err)
		}
		if b.Lens, err = matrix.ReadFloat64s(r, size); err != nil {
			return fmt.Errorf("bucket %d lengths: %w", i, err)
		}
		if b.Dirs, err = matrix.ReadFloat64s(r, size*dim); err != nil {
			return fmt.Errorf("bucket %d directions: %w", i, err)
		}
		st.Buckets = append(st.Buckets, b)
	}
	return nil
}
