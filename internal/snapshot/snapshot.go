// Package snapshot serializes a LEMP index so a server can restart without
// re-paying the expensive part of its preprocessing: when the index was
// pretuned, the sample-based parameter selection of §4.4, and the
// sorted-list builds. The bucketization of §3.2 is stored and checked, not
// trusted: a load bucketizes the probes again.
//
// The LEMPIDX1 format is a versioned, self-describing container:
//
//	magic    [8]byte  "LEMPIDX1"
//	version  uint32   format version; this writer emits 6
//	reserved uint32   zero
//	section* — each section:
//	    tag     [4]byte
//	    length  uint64   payload bytes
//	    payload [length]byte
//	    crc32   uint32   IEEE CRC-32 of the payload
//
// All integers and floats are little endian. A version-6 stream stores each
// fact once, in these sections, in this order. Of what the loader can derive
// from the probe matrix it keeps only BUKT's member ids: they are the check
// that the stored fit and lists belong to the buckets a load derives.
//
//	"OPTS"  the core.Options the index was built with (a fixed 85 bytes;
//	        two slots that once held BLSH settings carry their fixed
//	        values, 32 and 0.03, and are ignored on read)
//	"PROB"  the probe matrix (r, n, r×n float64)
//	"PIDS"  optional: probe column → external id (n × int32), present when
//	        the ids are not the column numbers
//	"MUTA"  optional: mutation epoch (uint64) and next AutoID assignment
//	        (int64), present when either differs from its derived default
//	"TSMP"  optional: the retained tuning sample of a pretuned index — the
//	        problem kind (topk flag), k (int64), θ (float64), then the
//	        sample matrix (r, m, r×m float64) — so a restored index can
//	        re-freeze fitted parameters after a Compact
//	"BUKT"  the bucketization: bucket count (uint32) and pretuned flag, then
//	        per bucket its size (uint32), tuning state (tuned flag, t_b
//	        float64, φ_b int64) and member ids (size × int32) by decreasing
//	        length
//	"SLST"  optional (WriteOptions.IncludeLists): the per-bucket sorted-list
//	        indexes (§4.2) built so far — per bucket a presence byte, then
//	        when present the coordinate-major values (size × r float64) and
//	        local ids (size × r int32). Persisting them lets a restored
//	        server's first batch skip the rebuild that dominates
//	        post-restore latency, at roughly twice the snapshot size.
//	"QNT8"  present iff core.Options.Quantize (the OPTS layout predates the
//	        flag): one zero byte per bucket
//	"END\0" zero-length terminator
//
// A mutated index is compacted on save — the delta layer folds into a fresh
// bucketization with ids preserved — so every snapshot holds one
// bucketization over the live probes.
//
// Derived on load: core.FromState is a build. It bucketizes the PROB
// columns under OPTS and PIDS as core.NewIndexWithIDs does, so a restored
// bucket holds the bits a fresh one does, and it refuses the file unless
// BUKT names exactly the derived buckets, member for member, which is what
// catches a corrupt probe value, a permuted membership or a moved bucket
// boundary. A Quantize index quantizes its int8 screening sidecars as a
// build does, and persisted sorted lists are verified against the derived
// directions bit for bit, so a tampered list fails to load.
//
// OPTS names the bucket algorithm by number: 0 LI, 1 L, 2 C, 3 I, 4 LC.
// Builds that served the paper's TA, cover-tree, L2AP and BayesLSH-Lite
// baselines as bucket algorithms numbered them 5–8; those now run only in
// the experiment harness, and a file of any version naming one is refused
// with the number, never loaded with another method in its place.
//
// Versions 1–5 are read, never written. Version 1 has OPTS, PROB, BUKT and
// END; 2 adds PIDS, MUTA and TSMP; 3 SLST; 4 PLMT; 5 QNT8. Their BUKT also
// stores each member's length (float64) and direction (r × float64) after
// the ids, and their QNT8 follows a presence byte 1 with a sidecar (size
// scales and size residual bounds as float64, size × r int8 codes). The
// reader checks the framing of those bytes and skips them; the section
// checksums still cover them.
//
// "PLMT", which sits between SLST and QNT8 and which earlier builds also
// wrote into version-6 files, held the serving layer's shard-placement
// name (length-prefixed, at most 64 bytes) and a cone flag; a flag 1, from
// builds that pruned shards by direction, is followed by a cone (uint32
// centroid length 0 or r, the centroid, cos of the angular radius, maximum
// live probe length). It is read and discarded, never written: any split of
// the probes answers exactly, and a restore keeps the snapshots' partition
// or re-places under the placement it is given.
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
// The int8 sidecars are intentionally not persisted: they are cheap relative
// to bucketization, derived, and rebuilt after a restore.
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
	"slices"

	"lemp/internal/core"
	"lemp/internal/matrix"
)

// Magic identifies a LEMPIDX1 snapshot stream.
const Magic = "LEMPIDX1"

// Version is the format version Write emits. Read accepts 1 through Version.
const Version = 6

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
// longer one is corruption, not a name.
const maxPlacementKind = 64

// Dimension plausibility bounds, matching matrix.ReadBinary.
const (
	maxDim    = 1 << 20
	maxProbes = 1 << 31
)

// optionsLen is the fixed OPTS payload size: one uint32, ten 8-byte fields,
// one byte.
const optionsLen = 4 + 10*8 + 1

// The values Write puts in the two OPTS slots that held BLSH's signature
// length and false-negative rate when they were options: the settings the
// BLSH baseline of the experiment harness uses. Read ignores the slots.
const (
	blshBits    = 32
	blshEpsilon = 0.03
)

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
	// been built so far (SLST section), trading snapshot size for a restored
	// server that skips the first-use list rebuild. Buckets whose lists were
	// never built are recorded as absent and still rebuild lazily after
	// restore.
	IncludeLists bool
}

// Write serializes st in the LEMPIDX1 format with default options (no
// SLST section).
func Write(w io.Writer, st *core.State) error {
	return WriteWith(w, st, WriteOptions{})
}

// WriteWith is Write with explicit options. It always writes format
// Version; the optional sections appear when the state needs them, SLST
// when WriteOptions.IncludeLists asks for it and some list is built.
func WriteWith(w io.Writer, st *core.State, opts WriteOptions) error {
	if st.Probe == nil {
		return fmt.Errorf("snapshot: state has no probe matrix")
	}
	writeMuta := st.Epoch != 0 || st.NextID != defaultNextID(st)
	writeTune := st.Pretuned && st.TuneSample != nil
	writeLists := opts.IncludeLists && slices.ContainsFunc(st.Buckets, func(b core.BucketState) bool { return b.ListVals != nil })
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
	for _, b := range st.Buckets {
		bucketsLen += 21 + 4*uint64(len(b.IDs))
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
	if st.Opts.Quantize {
		if err := writeSection(bw, tagQuant, uint64(len(st.Buckets)), func(w io.Writer) error {
			_, err := w.Write(make([]byte, len(st.Buckets)))
			return err
		}); err != nil {
			return err
		}
	}
	if err := writeSection(bw, tagEnd, 0, func(io.Writer) error { return nil }); err != nil {
		return err
	}
	return bw.Flush()
}

// readQuantSidecar parses the QNT8 payload: one presence byte per
// already-read bucket. A version-5 writer followed a 1 with the bucket's
// sidecar, which is skipped — FromState re-quantizes the directions it
// derives.
func readQuantSidecar(r io.Reader, st *core.State) error {
	dim := int64(st.Probe.R())
	for i, b := range st.Buckets {
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
		if _, err := io.CopyN(io.Discard, r, int64(len(b.IDs))*(8+8+dim)); err != nil {
			return fmt.Errorf("bucket %d sidecar: %w", i, err)
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

// skipPlacement checks the framing of a PLMT payload and discards it: the
// placement name, then a cone flag, and after a flag 1 a cone whose
// centroid length must be 0 or the probe dimension.
func skipPlacement(r io.Reader, st *core.State) error {
	var kindLen [1]byte
	if _, err := io.ReadFull(r, kindLen[:]); err != nil {
		return err
	}
	if int(kindLen[0]) > maxPlacementKind {
		return fmt.Errorf("placement kind length %d exceeds %d", kindLen[0], maxPlacementKind)
	}
	if _, err := io.CopyN(io.Discard, r, int64(kindLen[0])); err != nil {
		return err
	}
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
	buf = binary.LittleEndian.AppendUint64(buf, blshBits)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(blshEpsilon))
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
	version := binary.LittleEndian.Uint32(hdr[0:4])
	if version < 1 || version > Version {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (this build reads versions 1 through %d)", version, Version)
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
				if next < 0 || next > core.MaxProbeID+1 {
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
			err = readBuckets(sr, st, version)
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
			err = skipPlacement(sr, st)
		case tagQuant:
			if haveQuant {
				return nil, fmt.Errorf("snapshot: duplicate QNT8 section")
			}
			if !haveBuckets {
				return nil, fmt.Errorf("snapshot: QNT8 section before BUKT")
			}
			haveQuant = true
			// The fixed-size OPTS payload predates the Quantize flag;
			// presence of the QNT8 section is the persisted form of it.
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
		Seed:          int64(u64(77)),
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
func readProbe(r io.Reader) (*matrix.Matrix, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	return readMatrix(r, hdr[:], 0, "probe")
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
	var err error
	st.TuneSample, err = readMatrix(r, hdr[17:25], 1, "tuning sample")
	return err
}

// readMatrix reads the float64 values of a matrix whose dimensions, r then
// n as little-endian uint32s, are the 8 bytes of dims. Both must be at least
// least and within maxDim and maxProbes, and r·n values must be addressable,
// so a corrupt header cannot force an unbounded allocation.
func readMatrix(r io.Reader, dims []byte, least int, what string) (*matrix.Matrix, error) {
	rr := int(binary.LittleEndian.Uint32(dims[0:4]))
	n := int(binary.LittleEndian.Uint32(dims[4:8]))
	if rr < least || n < least || rr > maxDim || n > maxProbes {
		return nil, fmt.Errorf("implausible %s dimensions %d×%d", what, rr, n)
	}
	hi, lo := bits.Mul64(uint64(rr), uint64(n))
	if hi != 0 || lo > uint64(math.MaxInt)/8 {
		return nil, fmt.Errorf("%s dimensions %d×%d overflow", what, rr, n)
	}
	data, err := matrix.ReadFloat64s(r, int(lo))
	if err != nil {
		return nil, err
	}
	return matrix.FromData(rr, n, data)
}

// readBuckets parses the BUKT payload of a stream of the given format
// version. Before version 6 each bucket's ids are followed by the members'
// lengths and directions, which are skipped: FromState derives them.
func readBuckets(r io.Reader, st *core.State, version uint32) error {
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
		if version < 6 {
			if _, err := io.CopyN(io.Discard, r, 8*int64(size)*int64(1+dim)); err != nil {
				return fmt.Errorf("bucket %d lengths and directions: %w", i, err)
			}
		}
		st.Buckets = append(st.Buckets, b)
	}
	return nil
}
