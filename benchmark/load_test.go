package main

import (
	"sync"
	"testing"
	"time"
)

// slowCaller answers every op after a fixed service time, one at a time
// across all callers sharing its lock: a single-server queue.
type slowCaller struct {
	mu      *sync.Mutex
	service time.Duration
}

func (c slowCaller) call(*op) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(c.service)
	return nil, nil
}

func TestScheduleDue(t *testing.T) {
	start := time.Unix(100, 0)
	s := schedule{start: start, interval: 250 * time.Microsecond}
	if got := s.due(0); !got.Equal(start) {
		t.Errorf("due(0) = %v, want the start", got)
	}
	if got, want := s.due(8), start.Add(2*time.Millisecond); !got.Equal(want) {
		t.Errorf("due(8) = %v, want %v", got, want)
	}
}

// An open loop keeps to its schedule when the system stalls, and charges
// the wait to every request the stall delayed: with a 20 ms service time
// and 5 ms between arrivals, request i waits behind i earlier ones, so its
// latency from the due time is about (i+1)·20 − i·5 ms. A closed loop would
// have reported 20 ms for each.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const (
		n        = 8
		service  = 20 * time.Millisecond
		interval = 5 * time.Millisecond
	)
	src := &opSource{ops: make([]op, n)}
	var mu sync.Mutex
	callers := make([]caller, n)
	for i := range callers {
		callers[i] = slowCaller{mu: &mu, service: service}
	}
	p := runOpen(src, callers, n, interval)
	if len(p.results) != n {
		t.Fatalf("%d results, want %d", len(p.results), n)
	}
	lat := p.latencies(isRead) // ascending, in ms
	last := lat[len(lat)-1]
	wantLast := float64(n*service-(n-1)*interval) / float64(time.Millisecond) // 125 ms
	if last < wantLast-10 || last > wantLast+60 {
		t.Errorf("slowest latency from due time = %.1f ms, want about %.0f ms", last, wantLast)
	}
	if lat[0] < 19 || lat[0] > 60 {
		t.Errorf("fastest latency = %.1f ms, want about 20 ms", lat[0])
	}
	// Every caller was free at its slot's due time and the dispatcher does
	// not sleep through it, so the sends began on time.
	if late, _ := lateness(p.results, interval); late > 0.25 {
		t.Errorf("late share = %v with a free caller per slot", late)
	}
}

// With a single caller the generator cannot send slot i+1 while slot i is
// in service: the schedule slips, and lateness must say so.
func TestOpenLoopReportsLateGenerator(t *testing.T) {
	var mu sync.Mutex
	src := &opSource{ops: make([]op, 6)}
	p := runOpen(src, []caller{slowCaller{mu: &mu, service: 10 * time.Millisecond}}, 6, time.Millisecond)
	late, p99 := lateness(p.results, time.Millisecond)
	if late < 0.5 {
		t.Errorf("late share = %v, want most sends late", late)
	}
	if p99 < 30_000 {
		t.Errorf("late p99 = %.0f us, want the ~50 ms the last slot slipped", p99)
	}
}

func TestLatenessAccounting(t *testing.T) {
	ms := time.Millisecond
	results := []opResult{
		{delay: 0}, {delay: -ms}, // a send cannot begin early; a negative delay is clock noise
		{delay: ms / 10}, {delay: ms / 5}, // within a fifth of the interval: not late
		{delay: ms / 2}, {delay: 40 * ms},
		{delay: ms / 100}, {delay: ms / 100}, {delay: ms / 100}, {delay: ms / 100},
	}
	late, p99 := lateness(results, ms)
	if late != 0.2 {
		t.Errorf("late share = %v, want 0.2", late)
	}
	if p99 != 40_000 {
		t.Errorf("late p99 = %v us, want 40000", p99)
	}
	if late, p99 := lateness(nil, ms); late != 0 || p99 != 0 {
		t.Errorf("lateness of nothing = %v, %v", late, p99)
	}
}

// scriptedCaller answers after a fixed time and fails the ops it is told
// to; it notes the order in which it and its partner were called.
type scriptedCaller struct {
	name    string
	service time.Duration
	fail    map[*op]bool
	log     *[]string
}

func (c scriptedCaller) call(o *op) ([]byte, error) {
	*c.log = append(*c.log, c.name)
	time.Sleep(c.service)
	if c.fail[o] {
		return nil, statusError{code: 500}
	}
	return []byte("ok"), nil
}

// The paired phase sends each op to the program and then to the reference,
// and spares the reference the ops the program failed.
func TestRunPairedAlternates(t *testing.T) {
	src := &opSource{ops: make([]op, 4)}
	var log []string
	prog := scriptedCaller{name: "prog", service: 2 * time.Millisecond, fail: map[*op]bool{&src.ops[2]: true}, log: &log}
	ref := scriptedCaller{name: "ref", service: time.Millisecond, log: &log}
	p, pr, err := runPaired(src, prog, ref, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"prog", "ref", "prog", "ref", "prog", "prog", "ref"}
	if len(log) != len(want) {
		t.Fatalf("calls %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("calls %v, want %v", log, want)
		}
	}
	if len(p.results) != 4 || p.failed() != 1 || len(pr.results) != 3 || pr.failed() != 0 {
		t.Errorf("program side %d ops (%d failed), reference side %d ops (%d failed); want 4 (1) and 3 (0)", len(p.results), p.failed(), len(pr.results), pr.failed())
	}
	if ms, ok := mixCost(readShares, p); !ok || ms < 2 || ms > 20 {
		t.Errorf("program's cost = %v ms, want the 2 ms service time", ms)
	}
	if ms, ok := mixCost(readShares, pr); !ok || ms < 1 || ms > 20 {
		t.Errorf("reference's cost = %v ms, want the 1 ms service time", ms)
	}
}

func TestMixCostWeighsMediansByShare(t *testing.T) {
	ms := time.Millisecond
	p := &phaseResult{results: []opResult{
		{kind: opTopK, latency: 1 * ms}, {kind: opTopK, latency: 2 * ms}, {kind: opTopK, latency: 90 * ms}, // median 2
		{kind: opUpdate, latency: 10 * ms},
		{kind: opAbove, latency: 500 * ms, failed: true}, // failed ops have no latency
	}}
	shares := map[opKind]float64{opTopK: 6, opAbove: 2, opTopK16: 1, opUpdate: 1}
	// Above-θ and 16-row ops are absent: top-k and updates share the weight 6:1.
	if got, ok := mixCost(shares, p); !ok || !near(got, (6*2+1*10)/7.0) {
		t.Errorf("mixCost = %v, %v; want %v", got, ok, (6*2+1*10)/7.0)
	}
	if _, ok := mixCost(shares, &phaseResult{}); ok {
		t.Errorf("an empty phase has a cost")
	}
}

func TestOpSource(t *testing.T) {
	lin := &opSource{ops: make([]op, 3), every: 2}
	var kept []bool
	for {
		o, keep := lin.take()
		if o == nil {
			break
		}
		kept = append(kept, keep)
	}
	if len(kept) != 3 || !kept[0] || kept[1] || !kept[2] {
		t.Errorf("linear source handed out %v, want 3 ops retaining the 1st and 3rd", kept)
	}
	if lin.remaining() != 0 {
		t.Errorf("remaining = %d after the end", lin.remaining())
	}
	cyc := &opSource{ops: make([]op, 3), cyclic: true}
	for i := 0; i < 7; i++ {
		if o, _ := cyc.take(); o != &cyc.ops[i%3] {
			t.Fatalf("cyclic take %d did not wrap", i)
		}
	}
}

// A closed loop stops at its deadline or when the source runs dry.
func TestClosedLoopEndsWithSource(t *testing.T) {
	var mu sync.Mutex
	src := &opSource{ops: make([]op, 5)}
	p := runClosed(src, []caller{slowCaller{mu: &mu, service: time.Millisecond}, slowCaller{mu: &mu, service: time.Millisecond}}, time.Minute)
	if ops, _ := p.ok(); ops != 5 {
		t.Errorf("%d ops done, want 5", ops)
	}
}
