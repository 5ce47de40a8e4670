package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"lemp"
	"lemp/internal/obs"
	"lemp/internal/vecmath"
)

// Config sizes a Server. The zero value is usable: it means a bounded
// request-body size and library-default index options except two. The
// bucket algorithm is always LENGTH, and Parallelism defaults to every core,
// for a build and for each retrieval call (a server owns the machine, unlike
// the paper's single-threaded measurements).
type Config struct {
	// Shards is ignored: a server holds one index. It is kept only because
	// the benchmark/ module sets it; its next refresh deletes it.
	Shards int
	// Placement is ignored, like Shards, and kept for the same reason.
	Placement string
	// Quant overrides the snapshots' Options.Quantize when restoring
	// (NewFromSnapshot): lemp.QuantAuto (the zero value) keeps what each
	// snapshot recorded, QuantOn forces the option on (every bucket is
	// quantized at load), QuantOff forces it off (the index then screens
	// lazily where the int8 kernels are assembly, like any default build).
	// Fresh builds ignore it — set Options.Quantize instead.
	Quant lemp.QuantMode
	// Options configure the index. Options.Algorithm and Options.Phi are
	// overridden: the server builds every index under lemp.AlgorithmL with
	// Phi 0, whose retrievals never tune and build no sorted lists.
	// Options.Parallelism == 0 is replaced by runtime.NumCPU(): a build, a
	// restore and each retrieval call use every core. Set Parallelism
	// explicitly to override.
	Options lemp.Options
	// BatchWindow is ignored: requests are never coalesced (see Batcher).
	// It is kept only because the benchmark/ module sets it; its next
	// refresh deletes it.
	BatchWindow time.Duration
	// ShedQueueRows is the admission-control bound on the query rows in
	// flight: while admitted retrieval requests not yet answered hold at
	// least this many query rows, new retrieval requests are rejected with
	// 429 before their bodies are decoded (default 16384; negative disables
	// queue-depth shedding).
	ShedQueueRows int
	// ShedInflight is the admission-control bound on concurrently served
	// retrieval/update requests: a request that would push the in-flight
	// count past this is rejected with 429 before any work (default 4096;
	// negative disables in-flight shedding). Shedding early keeps latency
	// bounded under overload instead of letting the queue collapse.
	ShedInflight int
	// MaxBodyBytes caps the request body size (default 32 MiB; negative
	// disables the limit). A long-lived server must not let one client
	// buffer arbitrary JSON into memory.
	MaxBodyBytes int64
	// MaxUpdateOps caps the number of ops per /v1/update batch (default
	// 4096; negative disables the limit). Updates are applied atomically,
	// so an unbounded batch would buffer unbounded derived state.
	MaxUpdateOps int
	// CompactFraction is the delta-mass threshold above which an update
	// triggers re-bucketization of the index (default 0.25;
	// negative disables auto-compaction). Lower values keep pruning tight
	// at the cost of more frequent rebuilds.
	CompactFraction float64
	// RequestTimeout bounds each retrieval request's end-to-end time
	// (default 0: no deadline). The deadline propagates into the index
	// scan, which aborts mid-bucket when it expires, so a pathological
	// query cannot pin the retrieval workers indefinitely.
	RequestTimeout time.Duration

	// Logger receives the structured access log (Debug), slow-query log
	// (Warn) and lifecycle events (Info). nil disables logging entirely
	// (metrics and tracing stay on).
	Logger *slog.Logger
	// SlowQueryThreshold marks retrieval/update requests slower than this
	// as slow: they are always retained in the trace ring and logged with
	// per-phase timings (default 0: slow-query capture off).
	SlowQueryThreshold time.Duration
	// TraceSampleRate is the probability a fast request's trace is
	// retained for GET /debug/traces (default 0: only slow requests are
	// retained). Recording itself is always on and allocation-free;
	// sampling decides retention at request end (tail sampling).
	TraceSampleRate float64
	// TraceRingSize bounds the retained-trace ring (default 256).
	TraceRingSize int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// server's handler. Off by default: profiles expose internals and
	// cost CPU, so production servers opt in explicitly.
	EnablePprof bool
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	c.Options.Algorithm, c.Options.Phi = lemp.AlgorithmL, 0
	if c.Options.Parallelism == 0 {
		c.Options.Parallelism = runtime.NumCPU()
	}
	if c.ShedQueueRows == 0 {
		c.ShedQueueRows = 16384
	}
	if c.ShedInflight == 0 {
		c.ShedInflight = 4096
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxUpdateOps == 0 {
		c.MaxUpdateOps = 4096
	}
	if c.CompactFraction == 0 {
		c.CompactFraction = 0.25
	}
	return c
}

// Server answers LEMP retrieval queries and probe updates over HTTP:
//
//	POST /v1/topk        {"queries": [[...], ...], "k": 10}
//	POST /v1/above       {"queries": [[...], ...], "theta": 0.9}
//	POST /v1/update      {"updates": [{"op": "add", "vector": [...]}, ...]}
//	GET  /healthz        liveness
//	GET  /readyz         readiness (503 once draining)
//	GET  /stats          cumulative JSON stats
//	GET  /metrics        Prometheus text exposition
//	GET  /debug/traces   retained request traces (tail-sampled)
//	GET  /debug/pprof/   runtime profiles (Config.EnablePprof)
//
// Responses list one result row per submitted query, each row an array of
// {"probe", "value"} objects (global probe ids; top-k rows by decreasing
// value, Above-θ rows by ascending probe id).
type Server struct {
	cfg     Config
	sharded *Sharded
	batcher *Batcher
	start   time.Time

	metrics *serverMetrics
	tracer  *obs.Tracer
	logger  *slog.Logger // nil-safe via logging flag
	logging bool

	// draining flips on at BeginDrain and never back. The constructors
	// are synchronous, so a Server is ready from the start: GET /readyz
	// reports 200 until draining.
	draining atomic.Bool

	requests atomic.Uint64 // retrieval requests accepted
	updates  atomic.Uint64 // update batches applied
}

// New builds a server over the probe matrix: one index, which copies the
// probes, so the caller may reuse the matrix at once.
func New(probe *lemp.Matrix, cfg Config) (*Server, error) {
	return NewWithIDs(probe, nil, cfg)
}

// NewWithIDs is New with caller-chosen external probe ids (ids[i] names
// probe column i; nil assigns 0..n-1). Rebuilding a server from a mutated
// catalog, whose ids are no longer contiguous, must use this so results and
// updates keep addressing the same probes.
func NewWithIDs(probe *lemp.Matrix, ids []int32, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if probe.N() == 0 {
		return nil, fmt.Errorf("server: probe matrix is empty")
	}
	ix, err := lemp.NewWithIDs(probe, ids, cfg.Options)
	if err != nil {
		return nil, fmt.Errorf("server: building the index: %w", err)
	}
	return newServer(newSharded(ix), cfg), nil
}

// NewFromSnapshot builds a server from a LEMPIDX1 snapshot. A file written
// under AlgorithmL, as WriteSnapshotsWith writes one, restores through
// lemp.LoadIndex, which builds the index over the file's probes. A file of
// any other algorithm (an older server's, or one the library wrote) and a
// set of several files, one per shard as builds whose server split its
// catalog into shards wrote it, in shard order, are rebuilt as one index
// under AlgorithmL, every id and the AutoID mark kept. No file's tuning
// sample is fitted on: LENGTH has nothing to fit. cfg.Options contributes
// only Parallelism; the rest of the structure comes from the (first) file.
func NewFromSnapshot(snapshots []io.Reader, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ix, err := loadSnapshots(snapshots, lemp.LoadOptions{Parallelism: cfg.Options.Parallelism, Quant: cfg.Quant})
	if err != nil {
		return nil, err
	}
	return newServer(newSharded(ix), cfg), nil
}

// newServer wires the serving stack around the index.
func newServer(sharded *Sharded, cfg Config) *Server {
	s := &Server{
		cfg:     cfg,
		sharded: sharded,
		batcher: &Batcher{sharded: sharded},
		start:   time.Now(),
		logger:  cfg.Logger,
		logging: cfg.Logger != nil,
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	s.tracer = obs.NewTracer(obs.TracerConfig{SampleRate: cfg.TraceSampleRate, RingSize: cfg.TraceRingSize})
	s.metrics = newServerMetrics()
	s.wireState()
	return s
}

// Registry exposes the server's metric registry (for embedding the
// families into a larger exposition, and for tests).
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// Tracer exposes the server's tracer (tests and custom trace sinks).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// BeginDrain marks the server draining: /readyz flips to 503 so load
// balancers stop routing here, while in-flight and straggler requests
// still complete. Draining is one-way.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) && s.logging {
		s.logger.Info("draining", "uptime", time.Since(s.start).String())
	}
}

// Sharded returns the server's index and its serving state (for snapshot
// persistence and introspection).
func (s *Server) Sharded() *Sharded { return s.sharded }

// WriteSnapshotsWith persists the index as one snapshot: open(0, 1) returns
// the destination (and any error, which aborts the write); the arguments are
// a file number and count, kept for the benchmark/ module, which names its
// files by them. Close is called only after a fully successful write; when
// the write fails mid-stream, a destination implementing Abort() is aborted
// instead of closed, so implementations that commit on Close (temp file +
// rename) can discard the partial output rather than publish it. Restart
// with NewFromSnapshot. It may run beside request serving: it writes the
// index version current when it starts, and queries change nothing it
// reads. The options are ignored: no snapshot stores sorted lists.
func (s *Server) WriteSnapshotsWith(open func(i, n int) (io.WriteCloser, error), _ lemp.SnapshotOptions) error {
	w, err := open(0, 1)
	if err != nil {
		return err
	}
	if err := s.sharded.current().WriteSnapshot(w); err != nil {
		if a, ok := w.(interface{ Abort() error }); ok {
			a.Abort()
		} else {
			w.Close()
		}
		return fmt.Errorf("server: snapshotting the index: %w", err)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("server: snapshotting the index: %w", err)
	}
	return nil
}

// Handler returns the server's HTTP routes. Every route runs under the
// instrument wrapper (request counters, latency histograms, access log);
// the work endpoints (topk, above, update) additionally carry a request
// trace whose id is returned in the X-Lemp-Trace header.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/topk", s.instrument("topk", true, s.handleTopK))
	mux.HandleFunc("POST /v1/above", s.instrument("above", true, s.handleAbove))
	mux.HandleFunc("POST /v1/update", s.instrument("update", true, s.handleUpdate))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", false, s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", false, s.handleReadyz))
	mux.HandleFunc("GET /stats", s.instrument("stats", false, s.handleStats))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", false, s.handleMetrics))
	mux.HandleFunc("GET /debug/traces", s.instrument("traces", false, s.handleTraces))
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// reqInfo is the per-request scratch the handlers fill for the instrument
// wrapper: query rows served and the call's core stats, so the access and
// slow-query logs can report work, not just latency.
type reqInfo struct {
	rows  int
	stats lemp.Stats
}

type reqInfoKey struct{}

// requestInfo extracts the wrapper's reqInfo, or nil when the handler was
// invoked outside instrument (direct tests).
func requestInfo(ctx context.Context) *reqInfo {
	info, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return info
}

// statusWriter captures the response status and byte count for metrics
// and logging. An unset status means no response was written — a request
// canceled by its client — reported as 499 (the de-facto "client closed
// request" code).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// statusClientClosed is reported when a handler finished without writing a
// response — the client disconnected and there was nobody to answer.
const statusClientClosed = 499

func (w *statusWriter) Status() int {
	if w.status == 0 {
		return statusClientClosed
	}
	return w.status
}

// instrument wraps a handler with the observability envelope: request
// counter and latency histogram always; for traced endpoints also the
// in-flight gauge, a request trace (id in X-Lemp-Trace, tail-sampled into
// the /debug/traces ring at completion) and the slow-query log.
func (s *Server) instrument(endpoint string, traced bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// The writer and the handler's report share one allocation.
		st := &struct {
			sw   statusWriter
			info reqInfo
		}{sw: statusWriter{ResponseWriter: w}}
		sw, info := &st.sw, &st.info
		var (
			tr      *obs.Trace
			root    obs.SpanRef
			traceID string
		)
		if traced {
			s.metrics.inFlight.Inc()
			tr = s.tracer.StartTrace()
			root = tr.Start(endpoint, obs.NoSpan)
			ctx := obs.ContextWithSpan(r.Context(), tr, root)
			ctx = context.WithValue(ctx, reqInfoKey{}, info)
			r = r.WithContext(ctx)
			if traceID = tr.IDString(); traceID != "" {
				sw.Header().Set("X-Lemp-Trace", traceID)
			}
		}
		h(sw, r)
		dur := time.Since(start)
		status := sw.Status()
		s.metrics.observeRequest(endpoint, status, dur)
		if traced {
			s.metrics.inFlight.Dec()
			tr.End(root)
			slow := s.cfg.SlowQueryThreshold > 0 && dur >= s.cfg.SlowQueryThreshold
			if slow {
				s.metrics.slowQueries.Inc()
				s.logSlowQuery(r, endpoint, status, dur, tr, info)
			}
			s.tracer.Finish(tr, obs.TraceMeta{Kind: endpoint, Rows: info.rows, Slow: slow})
		}
		if s.logging {
			s.logger.LogAttrs(r.Context(), slog.LevelDebug, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("duration", dur),
				slog.String("trace", traceID),
			)
		}
	}
}

// logSlowQuery emits the structured slow-query record: the end-to-end
// duration, the scan time (summed from the trace's span tree) and the work
// counters the handler recorded. It runs while the
// trace is still owned by this request, before Finish returns it to the
// pool.
func (s *Server) logSlowQuery(r *http.Request, endpoint string, status int, dur time.Duration, tr *obs.Trace, info *reqInfo) {
	if !s.logging {
		return
	}
	durNS := dur.Nanoseconds()
	var scanNS int64
	for _, sp := range tr.Spans() {
		end := sp.EndNS
		if end == 0 {
			end = durNS // unclosed span: clamp to request end
		}
		if sp.Name == "scan" {
			scanNS += end - sp.StartNS
		}
	}
	s.logger.LogAttrs(r.Context(), slog.LevelWarn, "slow query",
		slog.String("trace", tr.IDString()),
		slog.String("endpoint", endpoint),
		slog.Int("status", status),
		slog.Duration("duration", dur),
		slog.Int("rows", info.rows),
		slog.Int64("scan_ns", scanNS),
		slog.Int64("candidates", info.stats.Candidates),
		slog.Int64("results", info.stats.Results),
	)
}

// topKRequest is the body of POST /v1/topk.
type topKRequest struct {
	Queries [][]float64 `json:"queries"`
	K       int         `json:"k"`
}

// aboveRequest is the body of POST /v1/above.
type aboveRequest struct {
	Queries [][]float64 `json:"queries"`
	Theta   float64     `json:"theta"`
}

// resultEntry is one retrieved entry: probe id and inner-product value.
// The retrieval endpoints write this schema with appendResults, byte for
// byte what json.Marshal of a queryResponse gives.
type resultEntry struct {
	Probe int     `json:"probe"`
	Value float64 `json:"value"`
}

// queryResponse lists one result row per submitted query.
type queryResponse struct {
	Results [][]resultEntry `json:"results"`
}

// shedRequest is the admission-control gate, checked before a retrieval
// request's body is even decoded: when the query rows in flight or the
// in-flight request count is past the configured bound, the request is
// rejected with 429 and a Retry-After hint of one second.
// Shedding at the door keeps the latency of admitted requests bounded
// under overload — the alternative is an unboundedly deep queue where
// every request times out. Returns true when the request was shed.
func (s *Server) shedRequest(w http.ResponseWriter) bool {
	var reason string
	switch {
	case s.cfg.ShedQueueRows > 0 && s.batcher.RowsInFlight() >= int64(s.cfg.ShedQueueRows):
		reason = fmt.Sprintf("%d query rows in flight (limit %d)", s.batcher.RowsInFlight(), s.cfg.ShedQueueRows)
	case s.cfg.ShedInflight > 0 && int(s.metrics.inFlight.Value()) > s.cfg.ShedInflight:
		// The gauge already counts this request (instrument incremented
		// it), so strictly-greater means the limit was full before us.
		reason = fmt.Sprintf("%d requests in flight (limit %d)", int(s.metrics.inFlight.Value())-1, s.cfg.ShedInflight)
	default:
		return false
	}
	s.metrics.requestsShed.Inc()
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusTooManyRequests, "overloaded: %s", reason)
	return true
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) { s.handleQuery(w, r, true) }

func (s *Server) handleAbove(w http.ResponseWriter, r *http.Request) { s.handleQuery(w, r, false) }

// handleQuery answers /v1/topk (topk) or /v1/above: admission, then the
// body decoded into pooled buffers, then serve.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, topk bool) {
	if s.shedRequest(w) {
		return
	}
	cb := getCodecBuf()
	defer putCodecBuf(cb)
	if !s.decodeQuery(w, r, topk, s.sharded.R(), cb) {
		return
	}
	key := batchKey{topk: topk, k: cb.req.k, theta: cb.req.theta}
	s.serve(w, r, key, cb)
}

// serve answers one retrieval request pinned to a single update epoch: the
// epoch snapshot is taken once and the whole request retrieves on it, so a
// response can never mix rows from different epochs.
//
// The request context (plus the configured RequestTimeout) flows into the
// retrieval: when the client disconnects or the deadline passes, the scan
// aborts mid-bucket.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, key batchKey, cb *codecBuf) {
	if err := key.check(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req := &cb.req
	if req.badRow >= 0 {
		httpError(w, http.StatusBadRequest, "query %d has dimension %d, want %d", req.badRow, req.badLen, s.sharded.R())
		return
	}
	// Every coordinate is finite: JSON spells no NaN or Inf, and the decoder
	// refuses a literal that overflows float64. A row's length can still
	// overflow (a row of 1e200s), and the library refuses such a query; it is
	// refused here as a 400 rather than failing the retrieval with a 500.
	for i, dim := 0, s.sharded.R(); i < req.rows; i++ {
		if l := vecmath.Norm(req.data[i*dim : (i+1)*dim]); math.IsInf(l, 0) {
			httpError(w, http.StatusBadRequest, "query %d: length is %v; a vector's length must be finite", i, l)
			return
		}
	}
	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	view := s.sharded.CurrentView()
	// A row can never hold more than N entries; clamping here keeps huge k
	// values from sizing top-k heaps off user input.
	if n := view.N(); key.topk && n > 0 && key.k > n {
		key.k = n
	}
	s.requests.Add(1)
	info := requestInfo(ctx)
	if info != nil {
		info.rows = req.rows
	}

	// The request's rows form one retrieval call (none: no call).
	rows, st, err := s.batcher.submit(ctx, key, view, req.data, req.rows)
	if info != nil {
		info.stats = st
	}
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		// The client is gone; there is nobody to answer.
		return
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusServiceUnavailable, "retrieval timed out")
		return
	default:
		httpError(w, http.StatusInternalServerError, "retrieval: %v", err)
		return
	}

	// Encoded in full before anything is written, so a value JSON cannot
	// spell (±Inf from an overflowing inner product) becomes a clean 500
	// instead of a 200 with a truncated body.
	cb.out, err = appendResults(cb.out[:0], rows)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(cb.out)
}

// healthzResponse is the body of GET /healthz.
type healthzResponse struct {
	Status string `json:"status"`
	Probes int    `json:"probes"`
	Dim    int    `json:"dim"`
	Epoch  uint64 `json:"epoch"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	view := s.sharded.CurrentView()
	writeJSON(w, http.StatusOK, healthzResponse{
		Status: "ok",
		Probes: view.N(),
		Dim:    s.sharded.R(),
		Epoch:  view.Epoch(),
	})
}

// readyzResponse is the body of GET /readyz.
type readyzResponse struct {
	Status string `json:"status"`
	Probes int    `json:"probes"`
	Epoch  uint64 `json:"epoch"`
}

// handleReadyz is the readiness probe: 200 until BeginDrain, 503 after.
// /healthz answers liveness — "the process serves HTTP" — and stays 200
// through the drain. While the index is still building there is no Server
// yet; cmd/lemp-serve answers "starting" itself.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	view := s.sharded.CurrentView()
	resp := readyzResponse{Status: "ready", Probes: view.N(), Epoch: view.Epoch()}
	status := http.StatusOK
	if s.draining.Load() {
		resp.Status, status = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WritePrometheus(w)
}

// tracesResponse is the body of GET /debug/traces: retained request
// traces, newest first.
type tracesResponse struct {
	Traces []*obs.TraceSnapshot `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, tracesResponse{Traces: s.tracer.Snapshots()})
}

// statsResponse is the body of GET /stats: server counters plus the
// cumulative core retrieval stats across all calls.
type statsResponse struct {
	UptimeSeconds float64   `json:"uptime_seconds"`
	Requests      uint64    `json:"requests"`
	Updates       uint64    `json:"updates"`
	Epoch         uint64    `json:"epoch"`
	LiveProbes    int       `json:"live_probes"`
	Batches       uint64    `json:"batches"`
	BatchRows     uint64    `json:"batch_rows"`
	AvgBatchRows  float64   `json:"avg_batch_rows"`
	Kernels       string    `json:"kernels"` // "avx2+avx512vnni", "avx2" or "portable": vecmath.Kernels
	Shed          shedInfo  `json:"shed"`
	Quant         quantInfo `json:"quant"`
	Core          coreStats `json:"core"`
}

// quantInfo reports quantized-screening effectiveness and footprint:
// candidates discarded before exact verification vs passed through, and
// the index's sidecar memory — every bucket's with Options.Quantize,
// otherwise growing with the buckets queries reach. All zero on the portable
// kernels without the option.
type quantInfo struct {
	Screened     int64 `json:"screened"`
	Survivors    int64 `json:"survivors"`
	SidecarBytes int   `json:"sidecar_bytes"`
}

// shedInfo reports the admission-control configuration and effect: the
// configured bounds (0 = disabled), requests rejected with 429 so far, and
// the query rows in flight the queue-depth bound acts on.
type shedInfo struct {
	QueueRowsLimit int    `json:"queue_rows_limit"`
	InflightLimit  int    `json:"inflight_limit"`
	ShedTotal      uint64 `json:"shed_total"`
	QueueRows      int64  `json:"queue_rows"`
}

// coreStats is the "core" block of GET /stats: the cumulative lemp.Stats of
// every retrieval call beside the index state of the current view.
// Durations are integer nanoseconds; tune_ns and retrieval_ns sum worker
// time across calls and their goroutines, so neither is wall clock, while
// prep_ns is the index's build time.
type coreStats struct {
	lemp.Stats
	Buckets int   `json:"buckets"`
	PrepNS  int64 `json:"prep_ns"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.sharded.CumulativeStats()
	// The batch counts read the lemp_batch_rows histogram, which observes
	// every retrieval call, so /stats and /metrics cannot disagree.
	batches := s.metrics.batchRows.Count()
	rows := uint64(s.metrics.batchRows.Sum())
	avg := 0.0
	if batches > 0 {
		avg = float64(rows) / float64(batches)
	}
	view := s.sharded.CurrentView()
	core := coreStats{Stats: st, Buckets: view.ix.NumBuckets(), PrepNS: view.ix.PrepTime().Nanoseconds()}
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Updates:       s.updates.Load(),
		Epoch:         view.Epoch(),
		LiveProbes:    view.N(),
		Batches:       batches,
		BatchRows:     rows,
		AvgBatchRows:  avg,
		Kernels:       vecmath.Kernels(),
		Shed: shedInfo{
			QueueRowsLimit: max(0, s.cfg.ShedQueueRows),
			InflightLimit:  max(0, s.cfg.ShedInflight),
			ShedTotal:      uint64(s.metrics.requestsShed.Value()),
			QueueRows:      s.batcher.RowsInFlight(),
		},
		Quant: quantInfo{
			Screened:     st.QuantScreened,
			Survivors:    st.QuantSurvived,
			SidecarBytes: s.sharded.SidecarBytes(),
		},
		Core: core,
	})
}

// writeJSON answers status with v's JSON. It marshals before writing so an
// encoding failure (e.g. a ±Inf value from an overflowing inner product)
// becomes a clean 500 instead of a truncated body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(buf, '\n'))
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
