package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Lightweight in-process tracing. Every request gets a Trace — a pooled,
// fixed-capacity span tree recorded with two atomics per span — and the
// retention decision is made at the END of the request (tail sampling):
// requests slower than the server's slow-query threshold are always
// retained, fast ones probabilistically. This is the only structure that
// can guarantee a trace for every slow request without paying allocation
// for every fast one: recording is always on and allocation-free; copying
// a span tree to the ring happens only for the retained few.

// MaxSpans bounds one trace's span count. The serving tree is small — the
// request and its tune and scan phases — so 64 leaves ample room; beyond it,
// spans drop (counted) rather than allocate.
const MaxSpans = 64

// SpanRef indexes a span within its trace. NoSpan is the nil reference:
// all recording methods accept and return it gracefully, so call sites
// need no "is tracing on?" branches.
type SpanRef int32

const NoSpan SpanRef = -1

// Span is one timed node of a trace tree. Times are monotonic nanosecond
// offsets from the trace start.
type Span struct {
	Name    string
	Parent  SpanRef
	StartNS int64
	EndNS   int64
}

// Trace is a bounded, concurrently appendable span tree. The zero value is
// unusable; obtain traces from a Tracer. A nil *Trace discards all
// recording, so untraced code paths cost one nil check.
type Trace struct {
	id      uint64
	start   time.Time
	n       atomic.Int32
	dropped atomic.Uint32
	spans   [MaxSpans]Span
}

// ID returns the trace id.
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// IDString returns the id as 16 hex digits — the X-Lemp-Trace header value.
func (t *Trace) IDString() string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("%016x", t.id)
}

// Start opens a span under parent and returns its reference. Concurrent
// calls are safe (a call's goroutines may record at once); when the trace is
// full the span is dropped and counted.
func (t *Trace) Start(name string, parent SpanRef) SpanRef {
	if t == nil {
		return NoSpan
	}
	i := t.n.Add(1) - 1
	if i >= MaxSpans {
		t.dropped.Add(1)
		return NoSpan
	}
	sp := &t.spans[i]
	sp.Name = name
	sp.Parent = parent
	sp.StartNS = time.Since(t.start).Nanoseconds()
	sp.EndNS = 0
	return SpanRef(i)
}

// End closes the span.
func (t *Trace) End(ref SpanRef) {
	if t == nil || ref < 0 || ref >= MaxSpans {
		return
	}
	t.spans[ref].EndNS = time.Since(t.start).Nanoseconds()
}

// Len returns the number of recorded spans.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	n := int(t.n.Load())
	if n > MaxSpans {
		n = MaxSpans
	}
	return n
}

// Dropped returns the number of spans dropped to the capacity bound.
func (t *Trace) Dropped() uint32 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Spans returns the recorded spans. The slice aliases the trace's internal
// storage: read it only while the trace is still owned by the caller
// (before Finish returns it to the pool).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans[:t.Len()]
}

// reset prepares a pooled trace for reuse.
func (t *Trace) reset(id uint64) {
	t.id = id
	t.start = time.Now()
	t.n.Store(0)
	t.dropped.Store(0)
}

// spanCtx is the context ContextWithSpan returns: its parent plus the
// active trace and the parent span for child spans opened further down the
// stack (the core's tune/scan phases). It is one allocation where
// context.WithValue would be two (the context and the boxed value): Value
// hands out the spanCtx itself.
type spanCtx struct {
	context.Context
	tr     *Trace
	parent SpanRef
}

type spanCtxKey struct{}

func (c *spanCtx) Value(key any) any {
	if key == (spanCtxKey{}) {
		return c
	}
	return c.Context.Value(key)
}

// ContextWithSpan returns ctx carrying (trace, parent) for downstream span
// recording. It allocates once, so callers attach it once per request,
// never per candidate.
func ContextWithSpan(ctx context.Context, tr *Trace, parent SpanRef) context.Context {
	return &spanCtx{Context: ctx, tr: tr, parent: parent}
}

// SpanFrom extracts the active trace and parent span from ctx, or
// (nil, NoSpan) when the request is untraced.
func SpanFrom(ctx context.Context) (*Trace, SpanRef) {
	if ctx == nil {
		return nil, NoSpan
	}
	if sc, ok := ctx.Value(spanCtxKey{}).(*spanCtx); ok {
		return sc.tr, sc.parent
	}
	return nil, NoSpan
}

// SpanSnapshot is one span of a retained trace, as served by
// GET /debug/traces.
type SpanSnapshot struct {
	ID         int32  `json:"id"`
	Parent     int32  `json:"parent"`
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	DurationNS int64  `json:"duration_ns"`
}

// TraceSnapshot is a retained trace: the heap copy made only for sampled
// or slow requests.
type TraceSnapshot struct {
	TraceID      string         `json:"trace_id"`
	Start        time.Time      `json:"start"`
	DurationNS   int64          `json:"duration_ns"`
	Duration     string         `json:"duration"`
	Slow         bool           `json:"slow"`
	Kind         string         `json:"kind,omitempty"`
	Rows         int            `json:"rows,omitempty"`
	DroppedSpans uint32         `json:"dropped_spans,omitempty"`
	Spans        []SpanSnapshot `json:"spans"`
}

// TraceMeta is the per-request metadata attached at Finish time.
type TraceMeta struct {
	Kind string // request kind ("topk", "above", "update")
	Rows int    // query rows in the request
	Slow bool   // past the slow-query threshold: always retain
}

// TracerConfig sizes a Tracer.
type TracerConfig struct {
	// SampleRate is the probability a fast (non-slow) request's trace is
	// retained in the ring (0 disables probabilistic retention; slow
	// requests are always retained).
	SampleRate float64
	// RingSize is the retained-trace capacity (default 256).
	RingSize int
}

// Tracer owns the trace pool, the retention (tail-sampling) decision, and
// the bounded ring of retained traces. StartTrace and Finish of an
// unretained trace are allocation-free in steady state.
type Tracer struct {
	sampleBar uint64 // SampleRate scaled to uint64 space
	pool      sync.Pool
	idBase    uint64
	idSeq     atomic.Uint64

	mu   sync.Mutex
	ring []*TraceSnapshot
	next int

	retained atomic.Uint64
	finished atomic.Uint64
}

// NewTracer builds a tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	var bar uint64
	switch {
	case cfg.SampleRate >= 1:
		bar = ^uint64(0)
	case cfg.SampleRate > 0:
		bar = uint64(cfg.SampleRate * float64(1<<63) * 2)
	}
	t := &Tracer{
		sampleBar: bar,
		idBase:    rand.Uint64(),
		ring:      make([]*TraceSnapshot, 0, cfg.RingSize),
	}
	t.pool.New = func() any { return new(Trace) }
	return t
}

// StartTrace returns a recording trace with a fresh id.
func (tc *Tracer) StartTrace() *Trace {
	if tc == nil {
		return nil
	}
	tr := tc.pool.Get().(*Trace)
	// The id mixes a per-process random base with a sequence number:
	// unique within the process, unguessable enough across restarts to
	// make grep-by-id unambiguous in aggregated logs.
	tr.reset(tc.idBase ^ (tc.idSeq.Add(1) * 0x9e3779b97f4a7c15))
	return tr
}

// Finish ends a trace: retained (slow, or probabilistically sampled)
// traces are snapshotted into the ring; all traces return to the pool.
// Returns whether the trace was retained. The trace must not be used after
// Finish.
func (tc *Tracer) Finish(tr *Trace, meta TraceMeta) bool {
	if tc == nil || tr == nil {
		return false
	}
	tc.finished.Add(1)
	retain := meta.Slow || (tc.sampleBar > 0 && rand.Uint64() < tc.sampleBar)
	if retain {
		tc.keep(tr.snapshot(meta))
		tc.retained.Add(1)
	}
	tc.pool.Put(tr)
	return retain
}

// snapshot copies the trace onto the heap for retention.
func (t *Trace) snapshot(meta TraceMeta) *TraceSnapshot {
	spans := t.Spans()
	dur := time.Since(t.start)
	snap := &TraceSnapshot{
		TraceID:      t.IDString(),
		Start:        t.start,
		DurationNS:   dur.Nanoseconds(),
		Duration:     dur.String(),
		Slow:         meta.Slow,
		Kind:         meta.Kind,
		Rows:         meta.Rows,
		DroppedSpans: t.Dropped(),
		Spans:        make([]SpanSnapshot, len(spans)),
	}
	for i, sp := range spans {
		end := sp.EndNS
		if end == 0 {
			end = dur.Nanoseconds() // unclosed span: clamp to trace end
		}
		snap.Spans[i] = SpanSnapshot{
			ID:         int32(i),
			Parent:     int32(sp.Parent),
			Name:       sp.Name,
			StartNS:    sp.StartNS,
			DurationNS: end - sp.StartNS,
		}
	}
	return snap
}

func (tc *Tracer) keep(snap *TraceSnapshot) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if len(tc.ring) < cap(tc.ring) {
		tc.ring = append(tc.ring, snap)
		tc.next = len(tc.ring) % cap(tc.ring)
		return
	}
	tc.ring[tc.next] = snap
	tc.next = (tc.next + 1) % len(tc.ring)
}

// Snapshots returns the retained traces, newest first.
func (tc *Tracer) Snapshots() []*TraceSnapshot {
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	out := make([]*TraceSnapshot, 0, len(tc.ring))
	for i := 0; i < len(tc.ring); i++ {
		j := (tc.next - 1 - i + 2*len(tc.ring)) % len(tc.ring)
		if tc.ring[j] != nil {
			out = append(out, tc.ring[j])
		}
	}
	return out
}

// Retained returns the cumulative count of retained traces; Finished the
// cumulative count of finished ones.
func (tc *Tracer) Retained() uint64 {
	if tc == nil {
		return 0
	}
	return tc.retained.Load()
}

func (tc *Tracer) Finished() uint64 {
	if tc == nil {
		return 0
	}
	return tc.finished.Load()
}
