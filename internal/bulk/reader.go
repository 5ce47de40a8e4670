package bulk

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"lemp/internal/retrieval"
)

// Results is a decoded LEMPBRS1 result table. Rows[i] holds query i's
// entries in the file's canonical order with Query filled in.
type Results struct {
	Mode      Mode
	K         int
	Theta     float64
	R         int
	PanelRows int
	Rows      retrieval.TopK
}

// ReadResults loads a bulk result file, validating the header and that the
// payload holds exactly the declared number of rows. Counts are untrusted:
// rows grow incrementally, so a lying header fails at the first missing
// byte instead of allocating its claim.
func ReadResults(path string) (*Results, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("bulk: reading result header: %w", err)
	}
	if string(hdr[:8]) != resultMagic {
		return nil, fmt.Errorf("bulk: bad result magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != resultVersion {
		return nil, fmt.Errorf("bulk: unsupported result version %d", v)
	}
	res := &Results{
		Mode:      Mode(hdr[12]),
		K:         int(binary.LittleEndian.Uint32(hdr[16:])),
		Theta:     math.Float64frombits(binary.LittleEndian.Uint64(hdr[20:])),
		R:         int(binary.LittleEndian.Uint32(hdr[36:])),
		PanelRows: int(binary.LittleEndian.Uint32(hdr[40:])),
	}
	if res.Mode != ModeTopK && res.Mode != ModeAbove {
		return nil, fmt.Errorf("bulk: invalid result mode %d", hdr[12])
	}
	m := binary.LittleEndian.Uint64(hdr[28:])
	if m > 1<<40 {
		return nil, fmt.Errorf("bulk: implausible query count %d", m)
	}
	res.Rows = make(retrieval.TopK, 0, min(m, 1<<16))
	var rec [12]byte
	for q := uint64(0); q < m; q++ {
		if _, err := io.ReadFull(br, rec[:4]); err != nil {
			return nil, fmt.Errorf("bulk: reading row %d: %w", q, err)
		}
		count := binary.LittleEndian.Uint32(rec[:4])
		if count > 1<<31 {
			return nil, fmt.Errorf("bulk: row %d: implausible entry count %d", q, count)
		}
		var row []retrieval.Entry
		if count > 0 {
			row = make([]retrieval.Entry, 0, min(count, 1<<13))
		}
		for i := uint32(0); i < count; i++ {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return nil, fmt.Errorf("bulk: reading row %d entry %d: %w", q, i, err)
			}
			row = append(row, retrieval.Entry{
				Query: int(q),
				Probe: int(int32(binary.LittleEndian.Uint32(rec[:4]))),
				Value: math.Float64frombits(binary.LittleEndian.Uint64(rec[4:])),
			})
		}
		res.Rows = append(res.Rows, row)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("bulk: trailing bytes after %d rows", m)
	}
	return res, nil
}
