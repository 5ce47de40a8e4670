// Package obs is the serving stack's dependency-free observability layer:
// a metrics registry (atomic counters, gauges and fixed-bucket histograms
// with Prometheus text exposition), lightweight in-process tracing (per-
// request span trees captured into a bounded ring with tail sampling), and
// a strict parser for the exposition format so tests and smoke checks can
// verify every emitted family round-trips.
//
// The design constraint throughout is the PR 5 hot-path contract: recording
// an observation — Counter.Add, Gauge.Set, Histogram.Observe, Trace.Start/
// End — must not allocate. All hot-path state is pre-sized at registration
// time (children of labeled families, histogram bucket arrays, pooled span
// arrays); the expensive work (formatting, sorting, snapshotting) happens
// only at exposition or trace-retention time, off the serving path.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxChildren bounds the label cardinality of one family. Children are
// created by With at wiring time (per endpoint, per status class), never
// from request data, so hitting this bound is a programming error —
// unbounded label values are the classic way a metrics registry
// becomes a memory leak.
const maxChildren = 1000

// validMetricName reports whether name matches the exposition format's
// metric-name grammar, [a-zA-Z_:][a-zA-Z0-9_:]*. A byte loop, not a regexp:
// every family registration checks its name, and a server registers its
// families on every construction.
func validMetricName(name string) bool {
	for i := 0; i < len(name); i++ {
		if c := name[i]; !(nameByte(c) || c == ':' || (i > 0 && '0' <= c && c <= '9')) {
			return false
		}
	}
	return name != ""
}

// validLabelName reports whether name matches the label-name grammar,
// [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	for i := 0; i < len(name); i++ {
		if c := name[i]; !(nameByte(c) || (i > 0 && '0' <= c && c <= '9')) {
			return false
		}
	}
	return name != ""
}

// nameByte reports whether c may start a metric or label name other than
// with a colon: an ASCII letter or an underscore.
func nameByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

// Kind is a metric family's type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// atomicFloat is a float64 with atomic add/set, stored as bits. Adds use a
// CAS loop: contention on one counter is a handful of retries, never a
// lock or an allocation.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(d float64) {
	for {
		old := f.bits.Load()
		nb := math.Float64bits(math.Float64frombits(old) + d)
		if f.bits.CompareAndSwap(old, nb) {
			return
		}
	}
}

func (f *atomicFloat) Set(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value. The zero value is unusable;
// obtain counters from a Registry. All methods are safe for concurrent use
// and nil-safe (a nil Counter discards observations), so instrumented code
// paths need no "is observability wired?" branches.
type Counter struct {
	v  atomicFloat
	fn func() float64 // func-backed counter (read at exposition)
}

// Add increases the counter by d. Negative deltas are ignored — a counter
// must never go down, and silently corrupting rate() math is worse than
// dropping a buggy observation.
func (c *Counter) Add(d float64) {
	if c == nil || d < 0 || c.fn != nil {
		return
	}
	c.v.Add(d)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current value.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	if c.fn != nil {
		return c.fn()
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. Nil-safe like Counter.
type Gauge struct {
	v  atomicFloat
	fn func() float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil || g.fn != nil {
		return
	}
	g.v.Set(v)
}

// Add shifts the gauge by d (negative allowed).
func (g *Gauge) Add(d float64) {
	if g == nil || g.fn != nil {
		return
	}
	g.v.Add(d)
}

// Inc adds 1. Dec subtracts 1.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return g.v.Load()
}

// Histogram counts observations into fixed upper-bound buckets (le
// semantics: an observation lands in the first bucket whose bound is >= the
// value, exactly Prometheus's `le`). Bounds are fixed at registration, so
// Observe is a short linear scan plus two atomic adds — no allocation, no
// lock. Nil-safe like Counter.
type Histogram struct {
	bounds []float64       // strictly increasing, finite
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sum    atomicFloat
	total  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// ExpBuckets returns n strictly increasing bucket bounds starting at start
// and growing by factor: the standard shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LatencyBuckets spans 100µs to ~3.3s doubling — wide enough for both a
// sub-millisecond pruned scan and a pathological cold one, in seconds.
func LatencyBuckets() []float64 { return ExpBuckets(100e-6, 2, 16) }

// child is one (label values → metric) entry of a family.
type child struct {
	labelVals []string
	ctr       *Counter
	gauge     *Gauge
	hist      *Histogram
}

// Family is one named metric with a fixed label-key set.
type Family struct {
	name      string
	help      string
	kind      Kind
	labelKeys []string
	buckets   []float64

	mu       sync.Mutex
	children map[string]*child
	order    []*child
}

// CounterVec and HistogramVec hand out per-label-value children
// of a family. With is meant for wiring time (startup):
// it takes the family lock and may allocate; hold on to the returned handle
// for hot-path observation.
type CounterVec struct{ fam *Family }
type HistogramVec struct{ fam *Family }

func (v *CounterVec) With(labelVals ...string) *Counter {
	return v.fam.child(labelVals).ctr
}

func (v *HistogramVec) With(labelVals ...string) *Histogram {
	return v.fam.child(labelVals).hist
}

// child returns (creating if needed) the family's child for the label
// values.
func (f *Family) child(labelVals []string) *child {
	if len(labelVals) != len(f.labelKeys) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labelKeys), len(labelVals)))
	}
	key := strings.Join(labelVals, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	if len(f.children) >= maxChildren {
		panic(fmt.Sprintf("obs: metric %s exceeds %d label combinations; label values must be bounded", f.name, maxChildren))
	}
	c := &child{labelVals: append([]string(nil), labelVals...)}
	switch f.kind {
	case KindCounter:
		c.ctr = &Counter{}
	case KindGauge:
		c.gauge = &Gauge{}
	case KindHistogram:
		h := &Histogram{bounds: f.buckets}
		h.counts = make([]atomic.Uint64, len(f.buckets)+1)
		c.hist = h
	}
	f.children[key] = c
	f.order = append(f.order, c)
	return c
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is idempotent for an identical shape and
// panics on a conflicting one (same name, different kind/labels/buckets):
// metric names are code-owned, so a conflict is always a bug worth failing
// loudly on.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Family)}
}

func (r *Registry) register(name, help string, kind Kind, labelKeys []string, buckets []float64) *Family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, k := range labelKeys {
		if !validLabelName(k) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, k))
		}
	}
	if kind == KindHistogram {
		if len(buckets) == 0 {
			panic(fmt.Sprintf("obs: histogram %s needs at least one bucket", name))
		}
		for i, b := range buckets {
			if math.IsNaN(b) || math.IsInf(b, 0) || (i > 0 && b <= buckets[i-1]) {
				panic(fmt.Sprintf("obs: histogram %s buckets must be finite and strictly increasing", name))
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || !equalStrings(f.labelKeys, labelKeys) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different shape", name))
		}
		return f
	}
	f := &Family{
		name:      name,
		help:      help,
		kind:      kind,
		labelKeys: append([]string(nil), labelKeys...),
		buckets:   append([]float64(nil), buckets...),
		children:  make(map[string]*child),
	}
	r.byName[name] = f
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, KindCounter, nil, nil).child(nil).ctr
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, KindCounter, labelKeys, nil)}
}

// CounterFunc registers a counter whose value is read from fn at exposition
// time. fn must be monotonic (it typically reads an existing atomic
// counter, e.g. request totals) and safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindCounter, nil, nil)
	f.child(nil).ctr.fn = fn
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, KindGauge, nil, nil).child(nil).gauge
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindGauge, nil, nil)
	f.child(nil).gauge.fn = fn
}

// Histogram registers (or returns) an unlabeled histogram with the given
// upper bounds (an implicit +Inf bucket is added).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, KindHistogram, nil, buckets).child(nil).hist
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelKeys ...string) *HistogramVec {
	return &HistogramVec{fam: r.register(name, help, KindHistogram, labelKeys, buckets)}
}

// WritePrometheus renders every registered family in the text exposition
// format (families and children in deterministic sorted order, so scrapes
// diff cleanly).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*Family, 0, len(r.byName))
	for _, f := range r.byName {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *Family) write(b *strings.Builder) {
	f.mu.Lock()
	children := append([]*child(nil), f.order...)
	f.mu.Unlock()
	sort.Slice(children, func(i, j int) bool {
		return lessStrings(children[i].labelVals, children[j].labelVals)
	})

	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, strings.NewReplacer("\\", `\\`, "\n", `\n`).Replace(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, c := range children {
		switch f.kind {
		case KindCounter:
			writeSample(b, f.name, f.labelKeys, c.labelVals, "", "", c.ctr.Value())
		case KindGauge:
			writeSample(b, f.name, f.labelKeys, c.labelVals, "", "", c.gauge.Value())
		case KindHistogram:
			h := c.hist
			cum := uint64(0)
			for i, ub := range h.bounds {
				cum += h.counts[i].Load()
				writeSample(b, f.name+"_bucket", f.labelKeys, c.labelVals, "le", formatFloat(ub), float64(cum))
			}
			cum += h.counts[len(h.bounds)].Load()
			writeSample(b, f.name+"_bucket", f.labelKeys, c.labelVals, "le", "+Inf", float64(cum))
			writeSample(b, f.name+"_sum", f.labelKeys, c.labelVals, "", "", h.sum.Load())
			writeSample(b, f.name+"_count", f.labelKeys, c.labelVals, "", "", float64(cum))
		}
	}
}

// writeSample emits one `name{labels} value` line; extraKey/extraVal append
// a synthetic label (`le` for histogram buckets).
func writeSample(b *strings.Builder, name string, keys, vals []string, extraKey, extraVal string, value float64) {
	b.WriteString(name)
	if len(keys) > 0 || extraKey != "" {
		b.WriteByte('{')
		first := true
		for i, k := range keys {
			if !first {
				b.WriteByte(',')
			}
			first = false
			b.WriteString(k)
			b.WriteString(`="`)
			escapeLabel(b, vals[i])
			b.WriteByte('"')
		}
		if extraKey != "" {
			if !first {
				b.WriteByte(',')
			}
			b.WriteString(extraKey)
			b.WriteString(`="`)
			b.WriteString(extraVal)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(value))
	b.WriteByte('\n')
}

func escapeLabel(b *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lessStrings(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
