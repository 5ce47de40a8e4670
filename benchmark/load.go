package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// caller sends one op and returns the response body (valid until the
// caller's next call), or an error for anything but a 200. Each load
// goroutine owns one.
type caller interface {
	call(o *op) ([]byte, error)
}

// httpCaller posts ops to a server over loopback TCP.
type httpCaller struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}}
}

func (c *httpCaller) call(o *op) ([]byte, error) {
	resp, err := c.client.Post(c.base+o.kind.path(), "application/json", bytes.NewReader(o.body))
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError{code: resp.StatusCode, body: firstLine(c.buf.Bytes())}
	}
	return c.buf.Bytes(), nil
}

type statusError struct {
	code int
	body string
}

func (e statusError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// sample is one retained response, checked after the clock stops.
type sample struct {
	op   *op
	body []byte
}

// opResult is what a load goroutine records per completed op.
type opResult struct {
	kind    opKind
	latency time.Duration // closed: send to last byte; open: due time to last byte
	delay   time.Duration // open only: how long after its due time the send began
	rows    int32
	failed  bool
}

// phaseResult is one round of load.
type phaseResult struct {
	elapsed time.Duration
	results []opResult
	samples []sample
	errs    []error // first few failures, for the report
}

func (p *phaseResult) merge(o *phaseResult) {
	p.elapsed += o.elapsed
	p.results = append(p.results, o.results...)
	p.samples = append(p.samples, o.samples...)
	p.errs = append(p.errs, o.errs...)
}

func (p *phaseResult) ok() (ops, rows int) {
	for _, r := range p.results {
		if !r.failed {
			ops++
			rows += int(r.rows)
		}
	}
	return ops, rows
}

func (p *phaseResult) failed() int {
	n := 0
	for _, r := range p.results {
		if r.failed {
			n++
		}
	}
	return n
}

// latencies returns the ascending latencies in ms of the successful ops
// that keep selects.
func (p *phaseResult) latencies(keep func(opKind) bool) []float64 {
	var ds []time.Duration
	for _, r := range p.results {
		if !r.failed && keep(r.kind) {
			ds = append(ds, r.latency)
		}
	}
	return msOf(ds)
}

func isRead(k opKind) bool   { return k != opUpdate }
func isUpdate(k opKind) bool { return k == opUpdate }

// opSource hands out ops in stream order to concurrent load goroutines.
// A cyclic source wraps around; a linear one ends.
type opSource struct {
	ops    []op
	next   atomic.Int64
	cyclic bool
	every  int64 // retain every every-th response; 0 retains none
}

// take returns the next op and whether its response is to be retained.
func (s *opSource) take() (*op, bool) {
	i := s.next.Add(1) - 1
	if !s.cyclic && i >= int64(len(s.ops)) {
		return nil, false
	}
	return &s.ops[i%int64(len(s.ops))], s.every > 0 && i%s.every == 0
}

// remaining is how many ops a linear source still holds.
func (s *opSource) remaining() int {
	if s.cyclic {
		return int(^uint(0) >> 1)
	}
	return max(0, len(s.ops)-int(s.next.Load()))
}

const maxReportedErrs = 5

// worker accumulates one load goroutine's share of a phase.
type worker struct {
	phaseResult
}

func (w *worker) record(o *op, keep bool, body []byte, err error, latency, delay time.Duration) {
	w.results = append(w.results, opResult{kind: o.kind, latency: latency, delay: delay, rows: o.rows, failed: err != nil})
	if err != nil {
		if len(w.errs) < maxReportedErrs {
			w.errs = append(w.errs, fmt.Errorf("%s: %w", o.kind, err))
		}
		return
	}
	if keep {
		w.samples = append(w.samples, sample{op: o, body: append([]byte(nil), body...)})
	}
}

func gather(ws []worker, elapsed time.Duration) *phaseResult {
	out := &phaseResult{elapsed: elapsed}
	for i := range ws {
		out.results = append(out.results, ws[i].results...)
		out.samples = append(out.samples, ws[i].samples...)
		out.errs = append(out.errs, ws[i].errs...)
	}
	if len(out.errs) > maxReportedErrs {
		out.errs = out.errs[:maxReportedErrs]
	}
	return out
}

// runClosed drives a closed loop: each of the callers sends its next op as
// soon as the previous one is answered, until dur has passed or the source
// is empty. A slow system is offered less load, which is what callers that
// wait for replies do.
func runClosed(src *opSource, callers []caller, dur time.Duration) *phaseResult {
	ws := make([]worker, len(callers))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i, c := range callers {
		wg.Add(1)
		go func(w *worker, c caller) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o, keep := src.take()
				if o == nil {
					return
				}
				t0 := time.Now()
				body, err := c.call(o)
				w.record(o, keep, body, err, time.Since(t0), 0)
			}
		}(&ws[i], c)
	}
	wg.Wait()
	return gather(ws, time.Since(start))
}

// runPaired drives one caller that sends every op twice, to the program
// and then to the reference server, until dur has passed or the source is
// empty: request by request the two sides see the same machine. It returns
// each side as a phase; the reference's holds only the ops the program
// answered.
func runPaired(src *opSource, prog, ref caller, dur time.Duration) (progSide, refSide *phaseResult, err error) {
	var pw, rw worker
	start := time.Now()
	deadline := start.Add(dur)
	for time.Now().Before(deadline) {
		o, keep := src.take()
		if o == nil {
			break
		}
		t0 := time.Now()
		body, err := prog.call(o)
		t1 := time.Now()
		pw.record(o, keep, body, err, t1.Sub(t0), 0)
		if err != nil {
			continue
		}
		if _, err := ref.call(o); err != nil {
			return nil, nil, fmt.Errorf("reference server: %w", err)
		}
		rw.record(o, false, nil, nil, time.Since(t1), 0)
	}
	pw.elapsed = time.Since(start)
	return &pw.phaseResult, &rw.phaseResult, nil
}

// mixCost is the time one op of a traffic mix takes, in ms: the median
// latency of each kind of op, weighted by the kind's share of the traffic.
// Medians, because a stall of the host, a collection or a compaction in the
// background lengthens a few ops by a lot; per kind, because the kinds of
// serve_mixed differ fifty-fold and a median over all of them would ignore
// the costly tenth. Kinds the phase holds no successful op of (the smoke
// test's rounds are that short) are left out and the shares rescaled; ok is
// false when it holds none at all.
func mixCost(shares map[opKind]float64, p *phaseResult) (ms float64, ok bool) {
	var total float64
	for kind, share := range shares {
		lat := p.latencies(func(k opKind) bool { return k == kind })
		if len(lat) == 0 {
			continue
		}
		ms += share * percentile(lat, 0.50)
		total += share
	}
	if total == 0 {
		return 0, false
	}
	return ms / total, true
}

// schedule is a fixed-interval arrival plan: op i is due at start + i·interval.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// spinLead is how long before a slot's due time the dispatcher stops
// sleeping and starts reading the clock in a loop: about the p90 of what
// nanosleep overshoots by on the reference host once the timer slack is 1 ns.
const spinLead = 50 * time.Microsecond

// dispatch hands slot i of n to the callers at sched.due(i) and closes
// slots. It must run on a goroutine of its own, which it binds to a thread
// that ends with it.
//
// time.Sleep is not good enough here. An idle Go process waits in
// epoll_wait, whose timeout counts in milliseconds, so a sleeping goroutine
// wakes 0.7 ms late at the median on the reference host: more than twice a
// whole serve_skew request, and timed from the due time it was most of that
// workload's median. nanosleep on a thread with 1 ns of timer slack wakes
// 25 us late; the clock loop covers that.
func dispatch(sched schedule, n int, slots chan<- int) {
	defer close(slots)
	runtime.LockOSThread() // never unlocked: the thread, and its timer slack, end with the goroutine
	const prSetTimerSlack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: without it wake-ups are 50 us later
	for i := 0; i < n; i++ {
		due := sched.due(i)
		for d := time.Until(due) - spinLead; d > 0; d = time.Until(due) - spinLead {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil) // a signal ends it early: go round again
		}
		for time.Now().Before(due) {
		}
		slots <- i
	}
}

// runOpen drives an open loop: n ops are due at fixed intervals whatever
// the system does. One dispatcher waits for each slot's due time and hands
// the slot to the callers, which send; when every caller is still busy the
// slot waits in the channel and is sent late. Latency is timed from the due
// time, so a stall charges every request it delayed, and delay records how
// late the generator itself began the send.
func runOpen(src *opSource, callers []caller, n int, interval time.Duration) *phaseResult {
	ws := make([]worker, len(callers))
	var wg sync.WaitGroup
	// Room for every slot of the round: the dispatcher must never wait for a
	// caller, or one slow answer would shift the whole schedule.
	slots := make(chan int, n)
	start := time.Now()
	sched := schedule{start: start.Add(interval), interval: interval}
	for i, c := range callers {
		wg.Add(1)
		go func(w *worker, c caller) {
			defer wg.Done()
			for i := range slots {
				o, keep := src.take()
				if o == nil {
					continue // the stream ran out: drain the schedule
				}
				due := sched.due(i)
				sent := time.Now()
				body, err := c.call(o)
				w.record(o, keep, body, err, time.Since(due), sent.Sub(due))
			}
		}(&ws[i], c)
	}
	go dispatch(sched, n, slots)
	wg.Wait()
	return gather(ws, time.Since(start))
}

// lateness summarises how far behind its schedule the generator ran: the
// share of sends that began more than a fifth of an arrival interval after
// their due time (rates are set at 35-45 % of capacity, so that is a tenth of
// a request or less: beyond it the generator, not the program, is a visible
// part of a latency timed from the due time), and the p99 of the send delay
// in microseconds.
func lateness(results []opResult, interval time.Duration) (lateShare, p99us float64) {
	if len(results) == 0 {
		return 0, 0
	}
	delays := make([]float64, len(results))
	late := 0
	for i, r := range results {
		d := max(r.delay, 0)
		delays[i] = float64(d) / float64(time.Microsecond)
		if d > interval/5 {
			late++
		}
	}
	sort.Float64s(delays)
	return float64(late) / float64(len(results)), percentile(delays, 0.99)
}

// openCallers is how many goroutines send the open phase: enough that the
// schedule is held while requests queue in the server, few enough that
// removeLag update batches are never in flight at once.
const openCallers = 32

func httpCallers(n int, client *http.Client, base string) []caller {
	cs := make([]caller, n)
	for i := range cs {
		cs[i] = &httpCaller{client: client, base: base}
	}
	return cs
}
