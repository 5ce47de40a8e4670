package server

import (
	"fmt"
	"time"

	"lemp"
	"lemp/internal/obs"
)

// The server's metric surface, exposed in Prometheus text format at
// GET /metrics. Everything observed on the serving path — request
// latencies, rows per call, update and compaction times — records through
// pre-resolved handles (atomic adds, no allocation, no locks);
// state that already lives somewhere (epoch, rows in flight, the cumulative
// core stats /stats renders) is exported through func-backed
// counters/gauges read only at scrape time.

// endpoints instrumented with request counters and latency histograms.
// A fixed list, never request data: label cardinality stays bounded.
var endpointNames = []string{"topk", "above", "update", "stats", "healthz", "readyz", "metrics", "traces"}

// statusCodes pre-resolved per endpoint. 429 is admission control shedding
// under overload; 499 is the synthesized "client closed request" status
// for requests canceled before a response was written.
var statusCodes = []int{200, 400, 413, 429, 499, 500, 503}

type serverMetrics struct {
	reg *obs.Registry

	inFlight *obs.Gauge

	reqDur        map[string]*obs.Histogram       // endpoint → latency
	reqTotal      map[string]map[int]*obs.Counter // endpoint → status → count
	reqTotalOther map[string]*obs.Counter         // endpoint → unexpected status

	batchRows    *obs.Histogram
	requestsShed *obs.Counter

	slowQueries *obs.Counter
}

// newServerMetrics registers every family and pre-resolves the hot-path
// children (per endpoint, per status).
func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:           reg,
		reqDur:        make(map[string]*obs.Histogram, len(endpointNames)),
		reqTotal:      make(map[string]map[int]*obs.Counter, len(endpointNames)),
		reqTotalOther: make(map[string]*obs.Counter, len(endpointNames)),
	}

	m.inFlight = reg.Gauge("lemp_requests_in_flight",
		"Retrieval/update requests currently being served.")

	durVec := reg.HistogramVec("lemp_request_duration_seconds",
		"End-to-end request latency by endpoint.", obs.LatencyBuckets(), "endpoint")
	totVec := reg.CounterVec("lemp_http_requests_total",
		"HTTP requests by endpoint and status (499 = client closed request).",
		"endpoint", "status")
	for _, ep := range endpointNames {
		m.reqDur[ep] = durVec.With(ep)
		byStatus := make(map[int]*obs.Counter, len(statusCodes))
		for _, code := range statusCodes {
			byStatus[code] = totVec.With(ep, fmt.Sprint(code))
		}
		m.reqTotal[ep] = byStatus
		m.reqTotalOther[ep] = totVec.With(ep, "other")
	}

	m.batchRows = reg.Histogram("lemp_batch_rows",
		"Query rows per retrieval call (one call per request).",
		obs.ExpBuckets(1, 2, 10))
	m.requestsShed = reg.Counter("lemp_requests_shed_total",
		"Retrieval requests rejected with 429 by admission control (rows-in-flight or in-flight-request limit reached).")

	m.slowQueries = reg.Counter("lemp_slow_queries_total",
		"Requests past the slow-query threshold (always traced and logged).")

	return m
}

// observeRequest records one finished request.
func (m *serverMetrics) observeRequest(endpoint string, status int, dur time.Duration) {
	if m == nil {
		return
	}
	m.reqDur[endpoint].ObserveDuration(dur)
	if c, ok := m.reqTotal[endpoint][status]; ok {
		c.Inc()
	} else {
		m.reqTotalOther[endpoint].Inc()
	}
}

// wireState registers the func-backed families that read live server
// state at scrape time. Called once from newServer, after every component
// exists.
func (s *Server) wireState() {
	m := s.metrics
	reg := m.reg
	reg.GaugeFunc("lemp_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("lemp_ready",
		"1 when the server is serving (not draining), else 0.",
		func() float64 {
			if !s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("lemp_epoch",
		"Current update epoch (0 at construction, +1 per applied update batch).",
		func() float64 { return float64(s.sharded.Epoch()) })
	reg.GaugeFunc("lemp_live_probes",
		"Live probe vectors.",
		func() float64 { return float64(s.sharded.N()) })
	reg.CounterFunc("lemp_requests_total",
		"Retrieval requests accepted (post-validation).",
		func() float64 { return float64(s.requests.Load()) })
	reg.CounterFunc("lemp_updates_total",
		"Update batches applied.",
		func() float64 { return float64(s.updates.Load()) })
	reg.CounterFunc("lemp_compactions_total",
		"Index re-bucketizations triggered by update delta mass.",
		func() float64 { return float64(s.sharded.Compactions()) })
	reg.GaugeFunc("lemp_quant_sidecar_bytes",
		"Memory held by the int8 quantized screening sidecars: every bucket's when built with quantization, otherwise it grows with the buckets queries reach (0 on the portable kernels).",
		func() float64 { return float64(s.sharded.SidecarBytes()) })
	reg.GaugeFunc("lemp_batch_queue_rows",
		"Query rows of admitted retrieval requests not yet answered (the queue depth -shed-queue-rows bounds).",
		func() float64 { return float64(s.batcher.RowsInFlight()) })
	reg.CounterFunc("lemp_traces_finished_total",
		"Request traces recorded (tail-sampled at completion).",
		func() float64 { return float64(s.tracer.Finished()) })
	reg.CounterFunc("lemp_traces_retained_total",
		"Request traces retained into the /debug/traces ring.",
		func() float64 { return float64(s.tracer.Retained()) })

	// The core and quant counters read the cumulative stats /stats renders
	// as "core" and "quant", so the two surfaces cannot disagree.
	stat := func(name, help string, field func(lemp.Stats) float64) {
		reg.CounterFunc(name, help, func() float64 { return field(s.sharded.CumulativeStats()) })
	}
	stat("lemp_core_candidates_total",
		"Probe vectors that survived bucket pruning and were exactly verified (the paper's |C|).",
		func(st lemp.Stats) float64 { return float64(st.Candidates) })
	stat("lemp_core_results_total",
		"Verified entries that passed the threshold or ended in a top-k set.",
		func(st lemp.Stats) float64 { return float64(st.Results) })
	stat("lemp_core_block_verified_total",
		"Candidates verified through the blocked panel kernels.",
		func(st lemp.Stats) float64 { return float64(st.BlockVerified) })
	stat("lemp_core_scalar_verified_total",
		"Candidates verified through the scalar tail path.",
		func(st lemp.Stats) float64 { return float64(st.ScalarVerified) })
	stat("lemp_core_processed_pairs_total",
		"(query, bucket) combinations processed.",
		func(st lemp.Stats) float64 { return float64(st.ProcessedPairs) })
	stat("lemp_core_pruned_pairs_total",
		"(query, bucket) combinations pruned by the local threshold bound.",
		func(st lemp.Stats) float64 { return float64(st.PrunedPairs) })
	stat("lemp_core_scan_seconds_total",
		"Cumulative retrieval-scan time, summed across calls and their goroutines (worker time, not wall clock).",
		func(st lemp.Stats) float64 { return st.RetrievalTime.Seconds() })
	stat("lemp_quant_screened_total",
		"Candidates discarded by int8 quantized screening before exact verification (0 on the portable kernels unless built with quantization).",
		func(st lemp.Stats) float64 { return float64(st.QuantScreened) })
	stat("lemp_quant_survivors_total",
		"Candidates that passed quantized screening and went on to exact verification.",
		func(st lemp.Stats) float64 { return float64(st.QuantSurvived) })

	// Hook the update path and the retrieval door.
	s.sharded.applyHist = reg.Histogram("lemp_update_apply_seconds",
		"Wall time of one committed update batch, any compaction it ran included.",
		obs.LatencyBuckets())
	s.sharded.compactHist = reg.Histogram("lemp_compaction_seconds",
		"Wall time of one compaction (re-bucketization triggered by update delta mass).",
		obs.LatencyBuckets())
	s.batcher.batchRowsHist = m.batchRows
}
