package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented here). Spans of one replayed
// request share Req; Parent is the id of the span that caused this one, -1
// for a top-level span; Shard is -1 unless the call was to one shard.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Shard  int    `json:"shard"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. It is used by the
// single-client traced replay only, so it needs no lock.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, req, shard int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Req: req, Shard: shard, Start: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.t0)) }

// durations returns the durations of the spans called name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap each other (a
// fan-out); the covered part is the union of their intervals, clipped to
// the parent.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		at := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// levelSelf turns the median time of each successive entry point, outermost
// first, into per-level self times: a level's median minus the next level's
// (the innermost keeps its own). The levels are replayed one after another
// rather than nested in one request, so this is the ledger's subtraction.
func levelSelf(medians []float64) []float64 {
	out := make([]float64, len(medians))
	for i, m := range medians {
		out[i] = m
		if i+1 < len(medians) {
			out[i] -= medians[i+1]
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
