package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"lemp"
	"lemp/internal/naive"
	"lemp/internal/vecmath"
)

// entry is one result entry as the server encodes it.
type entry struct {
	Probe int     `json:"probe"`
	Value float64 `json:"value"`
}

type queryResponse struct {
	Results [][]entry `json:"results"`
}

// valueTol is the relative tolerance on inner-product values. Row-Top-k
// searches on unit directions and rescales, Above-θ multiplies directly, so
// the same pair can differ in the last few ulps between paths.
const valueTol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= valueTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// topKRowMatches compares a returned top-k row with the oracle's. Values
// must agree position by position; where the probe ids differ the returned
// probe must genuinely have that value (a tie broken the other way), which
// dot recomputes. This is "ties compared by value".
func topKRowMatches(got []entry, want []lemp.Entry, dot func(probe int) (float64, bool)) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, oracle %d", len(got), len(want))
	}
	seen := make(map[int]bool, len(got))
	for j := range got {
		if seen[got[j].Probe] {
			return fmt.Errorf("probe %d returned twice", got[j].Probe)
		}
		seen[got[j].Probe] = true
		if !near(got[j].Value, want[j].Value) {
			return fmt.Errorf("entry %d: value %v, oracle %v", j, got[j].Value, want[j].Value)
		}
		if got[j].Probe != want[j].Probe {
			v, live := dot(got[j].Probe)
			if !live || !near(v, got[j].Value) {
				return fmt.Errorf("entry %d: probe %d (value %v), oracle probe %d", j, got[j].Probe, got[j].Value, want[j].Probe)
			}
		}
	}
	return nil
}

// aboveRowMatches compares a returned Above-θ row with the oracle's set.
// Entries within the value tolerance of θ may fall on either side.
func aboveRowMatches(got []entry, want []lemp.Entry, theta float64) error {
	borderline := func(v float64) bool { return near(v, theta) }
	wantByProbe := make(map[int]float64, len(want))
	for _, e := range want {
		wantByProbe[e.Probe] = e.Value
	}
	prev := -1
	for _, e := range got {
		if e.Probe <= prev {
			return fmt.Errorf("probes not ascending at %d", e.Probe)
		}
		prev = e.Probe
		v, ok := wantByProbe[e.Probe]
		switch {
		case ok && near(v, e.Value):
			delete(wantByProbe, e.Probe)
		case ok:
			return fmt.Errorf("probe %d: value %v, oracle %v", e.Probe, e.Value, v)
		case !borderline(e.Value):
			return fmt.Errorf("probe %d (value %v) is not in the oracle's result", e.Probe, e.Value)
		}
	}
	for p, v := range wantByProbe {
		if !borderline(v) {
			return fmt.Errorf("oracle's probe %d (value %v) is missing", p, v)
		}
	}
	return nil
}

func decodeResponse(body []byte, rows int) ([][]entry, error) {
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	if len(resp.Results) != rows {
		return nil, fmt.Errorf("%d result rows for %d queries", len(resp.Results), rows)
	}
	return resp.Results, nil
}

// oracle answers queries by brute force (internal/naive) over a probe set.
type oracle struct {
	probes *lemp.Matrix
	ids    []int32 // external id of each column; nil when ids are the columns
}

func (o *oracle) id(col int) int {
	if o.ids == nil {
		return col
	}
	return int(o.ids[col])
}

func (o *oracle) topK(q *lemp.Matrix, k int) lemp.TopKRows {
	rows, _ := naive.RowTopK(q, o.probes, k)
	for _, row := range rows {
		for j := range row {
			row[j].Probe = o.id(row[j].Probe)
		}
	}
	return rows
}

func (o *oracle) above(q *lemp.Matrix, theta float64) [][]lemp.Entry {
	rows := make([][]lemp.Entry, q.N())
	naive.AboveTheta(q, o.probes, theta, func(e lemp.Entry) {
		e.Probe = o.id(e.Probe)
		rows[e.Query] = append(rows[e.Query], e)
	})
	return rows
}

// checkRead verifies one read response against the oracle, entry for
// entry. dot recomputes a returned probe's value for the tie rule.
func (o *oracle) checkRead(op *op, body []byte, q *lemp.Matrix, theta float64, dot func(row, probe int) (float64, bool)) error {
	rows, err := decodeResponse(body, int(op.rows))
	if err != nil {
		return err
	}
	qs := q.Slice(int(op.row), int(op.row+op.rows))
	if op.kind == opAbove {
		want := o.above(qs, theta)
		for i := range rows {
			if err := aboveRowMatches(rows[i], want[i], theta); err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
		}
		return nil
	}
	want := o.topK(qs, int(op.k))
	for i := range rows {
		i := i
		err := topKRowMatches(rows[i], want[i], func(p int) (float64, bool) { return dot(int(op.row)+i, p) })
		if err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// maxOracleChecks caps how many retained responses are compared with the
// oracle (evenly spaced among those retained): one brute-force scan of the
// catalog costs 5-10 ms, and the check must not outlast the measurement.
const maxOracleChecks = 512

// thin returns at most n of the samples, evenly spaced.
func thin(samples []sample, n int) []sample {
	if len(samples) <= n {
		return samples
	}
	out := make([]sample, n)
	for i := range out {
		out[i] = samples[i*len(samples)/n]
	}
	return out
}

// checkSamples compares retained top-k responses of an unmutated catalog
// with the oracle, in parallel, and returns how many mismatched (with the
// first few reasons).
func checkSamples(samples []sample, catalog, q *lemp.Matrix, workers int) (bad int, errs []error) {
	o := &oracle{probes: catalog}
	dot := func(row, probe int) (float64, bool) {
		if probe < 0 || probe >= catalog.N() {
			return 0, false
		}
		return vecmath.Dot(q.Vec(row), catalog.Vec(probe)), true
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(samples); i += workers {
				s := samples[i]
				if err := o.checkRead(s.op, s.body, q, 0, dot); err != nil {
					mu.Lock()
					bad++
					if len(errs) < maxReportedErrs {
						errs = append(errs, fmt.Errorf("%s of query row %d: %w", s.op.kind, s.op.row, err))
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return bad, errs
}

// checkStructure is the check applied to serve_mixed's concurrent phases,
// where updates land between a request and its check so the exact answer is
// not known: row count, order, no duplicate probes, k respected, and for
// every returned probe that no update ever touches, value = qᵀp.
func checkStructure(s sample, catalog, q *lemp.Matrix, theta float64, plan *updatePlan) error {
	rows, err := decodeResponse(s.body, int(s.op.rows))
	if err != nil {
		return err
	}
	for i, row := range rows {
		qv := q.Vec(int(s.op.row) + i)
		if s.op.kind != opAbove && len(row) > int(s.op.k) {
			return fmt.Errorf("row %d: %d entries for k = %d", i, len(row), s.op.k)
		}
		seen := make(map[int]bool, len(row))
		for j, e := range row {
			if seen[e.Probe] {
				return fmt.Errorf("row %d: probe %d returned twice", i, e.Probe)
			}
			seen[e.Probe] = true
			switch {
			case s.op.kind == opAbove && j > 0 && row[j-1].Probe >= e.Probe:
				return fmt.Errorf("row %d: probes not ascending at entry %d", i, j)
			case s.op.kind == opAbove && e.Value < theta && !near(e.Value, theta):
				return fmt.Errorf("row %d: value %v below theta %v", i, e.Value, theta)
			case s.op.kind != opAbove && j > 0 && row[j-1].Value < e.Value:
				return fmt.Errorf("row %d: values not descending at entry %d", i, j)
			}
			if plan.untouched(e.Probe) {
				if v := vecmath.Dot(qv, catalog.Vec(e.Probe)); !near(v, e.Value) {
					return fmt.Errorf("row %d: probe %d value %v, recomputed %v", i, e.Probe, e.Value, v)
				}
			}
		}
	}
	return nil
}

// mirror is the benchmark's own copy of a mutable probe set: the catalog
// plus every update batch applied so far, kept column-compact so
// internal/naive can scan it.
type mirror struct {
	data []float64
	ids  []int32
	col  map[int32]int
}

func newMirror(catalog *lemp.Matrix) *mirror {
	m := &mirror{
		data: append([]float64(nil), catalog.Data()...),
		ids:  make([]int32, catalog.N()),
		col:  make(map[int32]int, catalog.N()),
	}
	for i := range m.ids {
		m.ids[i] = int32(i)
		m.col[int32(i)] = i
	}
	return m
}

func (m *mirror) apply(batch []lemp.ProbeUpdate) error {
	for _, u := range batch {
		c, live := m.col[u.ID]
		switch u.Op {
		case lemp.OpAdd:
			if live {
				return fmt.Errorf("mirror: add of live id %d", u.ID)
			}
			m.col[u.ID] = len(m.ids)
			m.ids = append(m.ids, u.ID)
			m.data = append(m.data, u.Vec...)
		case lemp.OpUpdate:
			if !live {
				return fmt.Errorf("mirror: update of dead id %d", u.ID)
			}
			copy(m.data[c*dim:(c+1)*dim], u.Vec)
		case lemp.OpRemove:
			if !live {
				return fmt.Errorf("mirror: remove of dead id %d", u.ID)
			}
			last := len(m.ids) - 1
			copy(m.data[c*dim:(c+1)*dim], m.data[last*dim:(last+1)*dim])
			m.ids[c] = m.ids[last]
			m.col[m.ids[c]] = c
			m.ids = m.ids[:last]
			m.data = m.data[:last*dim]
			delete(m.col, u.ID)
		}
	}
	return nil
}

func (m *mirror) oracle() (*oracle, error) {
	probes, err := lemp.MatrixFromData(dim, len(m.ids), m.data)
	if err != nil {
		return nil, err
	}
	return &oracle{probes: probes, ids: m.ids}, nil
}

func (m *mirror) dot(qv []float64, probe int) (float64, bool) {
	c, live := m.col[int32(probe)]
	if !live {
		return 0, false
	}
	return vecmath.Dot(qv, m.data[c*dim:(c+1)*dim]), true
}
