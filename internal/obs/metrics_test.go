package obs

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Add(2)
	c.Inc()
	c.Add(-5) // counters never go down; negative deltas are dropped
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	c.Add(0.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter after Add(0.5) = %v, want 3.5", got)
	}

	g := r.Gauge("g", "help")
	g.Set(10)
	g.Add(-3)
	g.Dec()
	g.Inc()
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}

	// Nil handles discard silently: instrumented code paths need no
	// "is observability wired?" branches.
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	nc.Add(1)
	nc.Inc()
	ng.Set(1)
	nh.Observe(1)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 {
		t.Fatal("nil metric handles must read as zero")
	}
}

func TestFuncBackedMetrics(t *testing.T) {
	r := NewRegistry()
	v := 41.0
	r.CounterFunc("cf_total", "help", func() float64 { return v })
	r.GaugeFunc("gf", "help", func() float64 { return -v })
	v = 42
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "cf_total 42\n") {
		t.Fatalf("func counter not read at exposition time:\n%s", out)
	}
	if !strings.Contains(out, "gf -42\n") {
		t.Fatalf("func gauge not read at exposition time:\n%s", out)
	}
}

// TestHistogramBucketBoundaries pins the le semantics: an observation equal
// to a bound lands in that bound's bucket (v <= le), one just above it in
// the next, and one past the last bound in +Inf only.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{1, 2, 4})
	for _, v := range []float64{1.0, 1.5, 4.0, 5.0} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 11.5 {
		t.Fatalf("sum = %v, want 11.5", h.Sum())
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, b.String())
	}
	want := map[string]float64{"1": 1, "2": 2, "4": 3, "+Inf": 4} // cumulative
	got := make(map[string]float64)
	for _, s := range fams["h"].Samples {
		if s.Name == "h_bucket" {
			got[s.Labels["le"]] = s.Value
		}
	}
	for le, w := range want {
		if got[le] != w {
			t.Errorf("bucket le=%s = %v, want %v (all: %v)", le, got[le], w, got)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.5, 2, 4)
	want := []float64{0.5, 1, 2, 4}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	lat := LatencyBuckets()
	if lat[0] != 100e-6 || len(lat) != 16 {
		t.Fatalf("LatencyBuckets = %v", lat)
	}
}

// TestExpositionRoundTrip renders a registry with every metric kind —
// including labeled families and label values that need escaping — and
// feeds the output back through the strict parser.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain_total", "a plain counter").Add(3)
	cv := r.CounterVec("labeled_total", "by endpoint and status", "endpoint", "status")
	cv.With("topk", "200").Add(7)
	cv.With("topk", "400").Inc()
	cv.With("above", "200").Add(2)
	qv := r.CounterVec("queue_total", `weird "values\` /* escape torture */, "q")
	qv.With(`a"b\c` + "\nd").Add(5)
	hv := r.HistogramVec("lat_seconds", "latency", []float64{0.001, 0.01}, "shard")
	hv.With("0").Observe(0.0005)
	hv.With("1").Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	fams, err := ParseExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("round trip failed: %v\n%s", err, out)
	}

	if f := fams["plain_total"]; f == nil || f.Type != "counter" || f.Help != "a plain counter" {
		t.Fatalf("plain_total family wrong: %+v", f)
	}
	lf := fams["labeled_total"]
	if lf == nil || lf.LabelCardinality() != 3 {
		t.Fatalf("labeled_total cardinality = %d, want 3", lf.LabelCardinality())
	}
	found := false
	for _, s := range lf.Samples {
		if s.Labels["endpoint"] == "topk" && s.Labels["status"] == "200" {
			found = true
			if s.Value != 7 {
				t.Fatalf("labeled sample = %v, want 7", s.Value)
			}
		}
	}
	if !found {
		t.Fatal("labeled sample {endpoint=topk,status=200} missing")
	}
	qf := fams["queue_total"]
	if qf == nil || len(qf.Samples) != 1 {
		t.Fatalf("queue_total family wrong: %+v", qf)
	}
	if got := qf.Samples[0].Labels["q"]; got != `a"b\c`+"\nd" {
		t.Fatalf("escaped label round-tripped to %q", got)
	}
	hf := fams["lat_seconds"]
	if hf == nil || hf.Type != "histogram" || hf.LabelCardinality() != 2 {
		t.Fatalf("lat_seconds family wrong: %+v", hf)
	}
}

func TestRegistryIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "h")
	b := r.Counter("x_total", "h")
	if a != b {
		t.Fatal("re-registering the same shape must return the same metric")
	}
	mustPanic(t, "kind conflict", func() { r.Gauge("x_total", "h") })
	mustPanic(t, "label conflict", func() { r.CounterVec("x_total", "h", "l") })
	mustPanic(t, "bad name", func() { r.Counter("bad name", "h") })
	mustPanic(t, "bad label", func() { r.CounterVec("y_total", "h", "0bad") })
	mustPanic(t, "empty buckets", func() { r.Histogram("h1", "h", nil) })
	mustPanic(t, "unsorted buckets", func() { r.Histogram("h2", "h", []float64{2, 1}) })
	mustPanic(t, "non-finite bucket", func() { r.Histogram("h3", "h", []float64{1, math.Inf(1)}) })
	v := r.CounterVec("vec_total", "h", "a")
	mustPanic(t, "label arity", func() { v.With("x", "y") })
}

// The name grammars of the exposition format, as regexps: the oracle of
// validMetricName and validLabelName.
var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// TestNameChecksMatchRegexps: the byte loops accept exactly the names the
// grammar's regexps do — on a table of valid, empty, leading-digit,
// colon-in-label and non-ASCII names, and on every string of one or two
// bytes — and registration keeps its panic messages.
func TestNameChecksMatchRegexps(t *testing.T) {
	names := []string{
		"lemp_requests_total", "_x", "a", "Z9", "a:b", ":x", "::", "a_b:c_1",
		"", "0abc", "9", "1_total",
		"a-b", "a b", "a.b", "a/b", "a\x00", "a\n", "a{", "a\"",
		"é", "aé", "a\xff", "\x80a", "名前", "a\u200b",
	}
	for c := 0; c < 256; c++ {
		names = append(names, string([]byte{byte(c)}))
		for d := 0; d < 256; d++ {
			names = append(names, string([]byte{byte(c), byte(d)}))
		}
	}
	for _, name := range names {
		if got, want := validMetricName(name), metricNameRE.MatchString(name); got != want {
			t.Errorf("validMetricName(%q) = %v, regexp says %v", name, got, want)
		}
		if got, want := validLabelName(name), labelNameRE.MatchString(name); got != want {
			t.Errorf("validLabelName(%q) = %v, regexp says %v", name, got, want)
		}
	}
	r := NewRegistry()
	for _, c := range []struct {
		want string
		f    func()
	}{
		{`obs: invalid metric name "0bad"`, func() { r.Counter("0bad", "h") }},
		{`obs: invalid metric name ""`, func() { r.Gauge("", "h") }},
		{`obs: metric ok_total: invalid label name "a:b"`, func() { r.CounterVec("ok_total", "h", "a:b") }},
		{`obs: metric ok_seconds: invalid label name "é"`, func() { r.HistogramVec("ok_seconds", "h", []float64{1}, "é") }},
	} {
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); got != c.want {
					t.Errorf("panic %q, want %q", got, c.want)
				}
			}()
			c.f()
		}()
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

// TestParseExpositionRejects pins the validations the CI smoke check relies
// on: each malformed input must fail to parse.
func TestParseExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "orphan 1\n",
		"duplicate TYPE":      "# TYPE a counter\n# TYPE a counter\na 1\n",
		"duplicate sample":    "# TYPE a counter\na 1\na 2\n",
		"bad value":           "# TYPE a counter\na x\n",
		"bare histogram sample": "# TYPE h histogram\n" +
			"h 1\n",
		"non-cumulative buckets": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"missing +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"count disagrees": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"missing sum": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
	}
	for name, in := range cases {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	// And a valid document with a timestamp (legal, dropped) must pass.
	ok := "# HELP a help text\n# TYPE a counter\na{l=\"v\"} 1 1700000000000\n"
	if _, err := ParseExposition(strings.NewReader(ok)); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
}

// TestObserveDoesNotAllocate is the hot-path contract: recording an
// observation on any pre-registered handle performs zero allocations.
func TestObserveDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h", "h", LatencyBuckets())
	child := r.CounterVec("v_total", "h", "shard").With("3")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(1e-6)
		g.Set(4)
		g.Add(-1)
		h.Observe(0.0042)
		child.Inc()
	}); n != 0 {
		t.Fatalf("observation allocates %.1f times per run, want 0", n)
	}
}

// TestConcurrentObservation hammers every metric kind from many goroutines
// while scraping concurrently; run under -race this is the data-race proof,
// and the final counts check that no observation was lost.
func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h", "h", []float64{1, 10, 100})
	vec := r.CounterVec("v_total", "h", "w")

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := vec.With("shared")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 150))
				child.Inc()
			}
		}(w)
	}
	// Scrape concurrently with the writers; every snapshot must parse.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			if _, err := ParseExposition(strings.NewReader(b.String())); err != nil {
				t.Errorf("mid-flight exposition does not parse: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	want := float64(workers * perWorker)
	if c.Value() != want {
		t.Errorf("counter = %v, want %v", c.Value(), want)
	}
	if g.Value() != want {
		t.Errorf("gauge = %v, want %v", g.Value(), want)
	}
	if h.Count() != uint64(want) {
		t.Errorf("histogram count = %v, want %v", h.Count(), want)
	}
	if got := vec.With("shared").Value(); got != want {
		t.Errorf("vec child = %v, want %v", got, want)
	}
}
