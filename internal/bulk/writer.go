package bulk

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"

	"lemp/internal/retrieval"
)

// Result format (LEMPBRS1): the full result table, rows in query order, a
// self-describing header in front. Values are raw float64 bits — the
// result is the paper's exact answer, not a rounded export.
//
//	magic      [8]byte  "LEMPBRS1"
//	version    uint32   1
//	mode       uint8    1 = Row-Top-k, 2 = Above-θ
//	pad        [3]byte
//	k          uint32   (0 in Above-θ mode)
//	theta      float64  (0 in Row-Top-k mode)
//	queries    uint64   number of rows that follow
//	r          uint32   query vector dimension
//	panelRows  uint32   panel size the job ran with
//	rows       queries × { count uint32, count × { probe uint32, value uint64 } }
//
// Row order is canonical — Row-Top-k entries by (value desc, probe asc),
// Above-θ entries by probe asc — NOT the engine's emit order. Exact LEMP
// retrieval fixes each row's entry SET and every value bit-for-bit
// regardless of bucket algorithm or tuning, but the order candidates
// surface in does depend on tuning, and a resumed job re-tunes on whatever
// panel it processes first. Canonicalizing at encode time is what makes
// the file a pure function of (index, queries, problem) — and resume
// byte-identical.
const (
	resultMagic   = "LEMPBRS1"
	resultVersion = 1
	headerSize    = len(resultMagic) + 4 + 4 + 4 + 8 + 8 + 4 + 4
)

// Mode selects the bulk problem.
type Mode uint8

const (
	// ModeTopK computes every query's k largest products (Problem 2).
	ModeTopK Mode = 1
	// ModeAbove computes every product ≥ θ (Problem 1).
	ModeAbove Mode = 2
)

func (m Mode) String() string {
	switch m {
	case ModeTopK:
		return "topk"
	case ModeAbove:
		return "above"
	}
	return "invalid"
}

// encodeHeader renders the LEMPBRS1 preamble for a job over m queries of
// dimension r.
func encodeHeader(mode Mode, k int, theta float64, m, r, panelRows int) []byte {
	buf := make([]byte, headerSize)
	copy(buf, resultMagic)
	binary.LittleEndian.PutUint32(buf[8:], resultVersion)
	buf[12] = byte(mode)
	binary.LittleEndian.PutUint32(buf[16:], uint32(k))
	binary.LittleEndian.PutUint64(buf[20:], math.Float64bits(theta))
	binary.LittleEndian.PutUint64(buf[28:], uint64(m))
	binary.LittleEndian.PutUint32(buf[36:], uint32(r))
	binary.LittleEndian.PutUint32(buf[40:], uint32(panelRows))
	return buf
}

// appendRow appends one row's canonical encoding.
func appendRow(buf []byte, row []retrieval.Entry) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(row)))
	for _, e := range row {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Probe))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Value))
	}
	return buf
}

// CanonicalizeTopK orders a Row-Top-k row by (value desc, probe asc) in
// place: the file order, and the order cross-checks against the serving
// path must apply to both sides before comparing (the serving path breaks
// value ties arbitrarily).
func CanonicalizeTopK(row []retrieval.Entry) {
	slices.SortFunc(row, func(a, b retrieval.Entry) int {
		if c := cmp.Compare(b.Value, a.Value); c != 0 {
			return c
		}
		return cmp.Compare(a.Probe, b.Probe)
	})
}

// canonicalizeAbove orders an Above-θ row by probe id ascending in place
// (one entry per probe, so the order is total).
func canonicalizeAbove(row []retrieval.Entry) {
	slices.SortFunc(row, func(a, b retrieval.Entry) int { return cmp.Compare(a.Probe, b.Probe) })
}

// encodeTopKPanel renders a panel's rows (panel-local order) canonically.
func encodeTopKPanel(rows retrieval.TopK) []byte {
	size := 0
	for _, row := range rows {
		size += 4 + 12*len(row)
	}
	buf := make([]byte, 0, size)
	for _, row := range rows {
		CanonicalizeTopK(row)
		buf = appendRow(buf, row)
	}
	return buf
}

// aboveRows collects one panel's Above-θ entries as the retrieval sink emits
// them and encodes them canonically. A worker keeps one across its panels,
// so its buffers stop growing once they hold its largest panel.
type aboveRows struct {
	sink    retrieval.Sink    // appends to entries; made once
	entries []retrieval.Entry // as emitted, Query panel-local
	grouped []retrieval.Entry // the same entries, row by row
	ends    []int             // per row: its end in grouped (a count first)
}

func newAboveRows() *aboveRows {
	a := &aboveRows{}
	a.sink = func(e retrieval.Entry) { a.entries = append(a.entries, e) }
	return a
}

// reset empties the collector for a panel of n rows.
func (a *aboveRows) reset(n int) {
	a.entries = a.entries[:0]
	if cap(a.ends) < n+1 {
		a.ends = make([]int, n+1)
	}
	a.ends = a.ends[:n+1]
	clear(a.ends)
}

// encode renders the collected panel: a counting pass groups the entries by
// query, each row is sorted by probe, and the rows are written in order,
// empty ones as a zero count.
func (a *aboveRows) encode() []byte {
	n := len(a.ends) - 1
	for _, e := range a.entries {
		a.ends[e.Query+1]++
	}
	for q := range n {
		a.ends[q+1] += a.ends[q] // ends[q] is now row q's start
	}
	a.grouped = slices.Grow(a.grouped[:0], len(a.entries))[:len(a.entries)]
	for _, e := range a.entries {
		a.grouped[a.ends[e.Query]] = e
		a.ends[e.Query]++ // ... and, once all are placed, its end
	}
	buf := make([]byte, 0, 4*n+12*len(a.grouped))
	start := 0
	for _, end := range a.ends[:n] {
		row := a.grouped[start:end]
		canonicalizeAbove(row)
		buf = appendRow(buf, row)
		start = end
	}
	return buf
}
