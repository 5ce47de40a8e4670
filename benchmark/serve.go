package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"lemp"
	"lemp/internal/obs"
	"lemp/internal/server"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // measuring time of one workload at scale 1
	scale   float64 // shrinks catalogs, pools and phases; 1 except in the smoke test
	trace   bool
	outDir  string
	clients int // see numClients
	log     io.Writer
	spec    *benchSpec
}

func (c *config) scaled(n, floor int) int {
	return max(floor, int(math.Round(float64(n)*c.scale)))
}

// measure is the part of the measuring time given to a phase.
func (c *config) measure(share float64) time.Duration {
	return time.Duration(c.seconds * c.scale * share * float64(time.Second))
}

func (c *config) logf(format string, args ...any) {
	fmt.Fprintf(c.log, format+"\n", args...)
}

// How one workload's measuring time is split among the phases of a round,
// and the repetition counts behind each reported median.
const (
	seqShare       = 0.30 // one caller, program and reference request by request
	closedShare    = 0.25 // every client busy on the program
	closedRefShare = 0.15 // every client busy on the reference server
	openShare      = 0.30 // fixed-interval arrivals
	loadRounds     = 10
	setupReps      = 5

	// A round of the open phase in which more than this share of the sends
	// began late says how the generator ran, not how the program did: it is
	// left out of the latency percentiles (and counted in a note). The
	// generator shares the CPUs with the program, so a send is late whenever
	// all of them are busy at its due time; at 35-45 % load that is one send
	// in ten, which leaves the median alone and is part of the tails.
	maxLateShare = 0.2

	batchWindow  = 2 * time.Millisecond // lemp-serve's -batch-window default
	warmupOps    = 64
	tuneRows     = 32  // rows of the first warm-up request of each problem; see genInputs
	thetaPerRow  = 10  // Above-θ returns about this many entries per query
	thetaSample  = 512 // queries θ is calibrated on
	readPoolRows = 32768
	refPoolOps   = 4096 // ops of the traffic cycled at the reference server in its closed phase

	// serve_mixed re-bucketizes a shard once its delta mass passes 2 %, not
	// lemp-serve's default 25 %. At 25 % one compaction cycle is about 2 600
	// update batches, longer than a run, and an update's cost grows five-fold
	// along it (3 ms to 15 ms: each batch copies the delta it adds to), so a
	// run would measure where in that sawtooth it stood. At 2 % a cycle is
	// about 200 batches and a run averages over dozens of them.
	mixedCompactFraction = 0.02

	flatRetain  = 32 // serve_flat, serve_skew: every 32nd response meets the oracle
	mixedRetain = 8  // serve_mixed: every 8th response is checked structurally
)

// serveRun is one run of a serve_* workload.
type serveRun struct {
	cfg   *config
	name  string
	mixed bool
	res   *workloadResult

	catalog    *lemp.Matrix
	queries    *lemp.Matrix
	theta      float64     // serve_mixed
	plan       *updatePlan // serve_mixed
	traffic    *opSource   // the workload's traffic
	refTraffic *opSource   // the bodies the reference server is kept busy with
	warm       []op

	snapFiles []string // serve_mixed: one snapshot per shard
	snapBytes int64

	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	ref    *refServer

	interval time.Duration // between arrivals of the open phase
}

func runServe(cfg *config, name string) (*workloadResult, error) {
	r := &serveRun{cfg: cfg, name: name, mixed: name == wlServeMixed, res: newWorkloadResult(name, cfg.spec), client: newHTTPClient()}
	defer r.client.CloseIdleConnections()
	r.genInputs()
	r.refTraffic = &opSource{ops: r.traffic.ops[:min(len(r.traffic.ops), refPoolOps)], cyclic: true}
	if r.mixed {
		if err := r.writeSnapshots(); err != nil {
			return nil, err
		}
	}

	// Set-up, several times over; the last server stays up for the load.
	var setupS, restoreS, indexMB []float64
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			r.teardown()
		}
		before := heapInUseMB()
		setup, restore, err := r.setup()
		if err != nil {
			return nil, err
		}
		mb := heapInUseMB() - before
		if !r.mixed {
			// server.New indexes the benchmark's catalog in place, so its
			// bytes were on the heap before; a restored server brings its own.
			mb += float64(r.catalog.N()*dim*8) / 1e6
		}
		setupS = append(setupS, setup.Seconds())
		restoreS = append(restoreS, restore.Seconds())
		indexMB = append(indexMB, mb)
	}
	defer r.teardown()
	r.res.e2e(mSetupS, setupS, 0)
	r.res.e2e(mIndexMB, indexMB, 0)
	if r.mixed {
		r.res.layer("snapshot.restore_s", median(restoreS))
	}
	afterSetup, err := r.readStats()
	if err != nil {
		return nil, err
	}

	// Load. Every round runs the three phases one after the other, so that
	// each metric's samples span the whole run and each round's program
	// times stand next to reference times taken within the same second:
	//
	//   paired  one caller, each op to the program then to the reference  -> seq_x (seq_ms)
	//   closed  every client back to back, reference then program         -> par_x (qps, rows_per_s)
	//   open    fixed-interval arrivals at a frozen rate                  -> p50_ms, p95_ms, p99_ms, update_p50_ms
	refRows := skewRefRows
	if name == wlServeFlat {
		refRows = flatRefRows
	}
	if r.ref, err = startRefServer(r.catalog, r.queries, cfg.scaled(refRows, 64)); err != nil {
		return nil, err
	}
	defer r.ref.stop()
	one, refOne := &httpCaller{client: r.client, base: r.base}, &httpCaller{client: r.client, base: r.ref.base}
	callers := httpCallers(cfg.clients, r.client, r.base)
	refCallers := httpCallers(cfg.clients, r.client, r.ref.base)
	senders := httpCallers(openCallers, r.client, r.base)
	r.interval = time.Duration(float64(time.Second) / openRate[name])
	perRound := int(cfg.measure(openShare/loadRounds) / r.interval)
	shares := readShares
	if r.mixed {
		shares = mixedShares
	}
	paired, closed, open, onTime := &phaseResult{}, &phaseResult{}, &phaseResult{}, &phaseResult{}
	var seqX, seqMs, refSeqMs, parX, qps, rowsPerS, refQPS, p50s, upd50s []float64
	var procClosed, procLoad procSnapshot
	for i := 0; i < loadRounds; i++ {
		before := readProc()
		p, pr, err := runPaired(r.traffic, one, refOne, cfg.measure(seqShare/loadRounds))
		if err != nil {
			return nil, err
		}
		ms, ok := mixCost(shares, p)
		if refMs, refOK := mixCost(shares, pr); ok && refOK {
			seqX = append(seqX, ms/refMs)
			seqMs = append(seqMs, ms)
			refSeqMs = append(refSeqMs, refMs)
		}
		paired.merge(p)

		// The reference goes first: what the program leaves running in the
		// background when its window ends (a compaction) must not land on
		// the reference's.
		pr = runClosed(r.refTraffic, refCallers, cfg.measure(closedRefShare/loadRounds))
		if n := pr.failed(); n > 0 {
			return nil, fmt.Errorf("reference server failed %d requests: %v", n, pr.errs)
		}
		beforeClosed := readProc()
		p = runClosed(r.traffic, callers, cfg.measure(closedShare/loadRounds))
		procClosed.add(readProc().sub(beforeClosed))
		ms, ok = mixCost(shares, p)
		if refMs, refOK := mixCost(shares, pr); ok && refOK {
			parX = append(parX, ms/refMs)
			n, rows := p.ok()
			refN, _ := pr.ok()
			qps = append(qps, float64(n)/p.elapsed.Seconds())
			rowsPerS = append(rowsPerS, float64(rows)/p.elapsed.Seconds())
			refQPS = append(refQPS, float64(refN)/pr.elapsed.Seconds())
		}
		closed.merge(p)

		p = runOpen(r.traffic, senders, perRound, r.interval)
		if late, _ := lateness(p.results, r.interval); late <= maxLateShare {
			p50s = append(p50s, percentile(p.latencies(isRead), 0.50))
			if r.mixed {
				upd50s = append(upd50s, percentile(p.latencies(isUpdate), 0.50))
			}
			onTime.merge(p)
		}
		open.merge(p)
		procLoad.add(readProc().sub(before))
	}
	afterLoad, err := r.readStats()
	if err != nil {
		return nil, err
	}
	pairedOK, _ := paired.ok()
	closedOK, _ := closed.ok()
	r.res.e2e(mSeqX, seqX, pairedOK)
	r.res.e2e(mParX, parX, closedOK)
	r.res.layerSampled(mSeqMs, median(seqMs), pairedOK)
	r.res.layerSampled(mRefSeqMs, median(refSeqMs), pairedOK)
	r.res.layerSampled(mQPS, median(qps), closedOK)
	r.res.layerSampled(mRowsPerS, median(rowsPerS), closedOK)
	r.res.layer(mRefQPS, median(refQPS))
	if len(p50s) < loadRounds {
		r.res.notef("%d of %d open rounds left out of the latency percentiles: more than %.0f%% of their sends began late", loadRounds-len(p50s), loadRounds, 100*maxLateShare)
	}
	reads := onTime.latencies(isRead)
	r.res.layerSampled(mP50, median(p50s), len(reads))
	r.res.tails(reads)
	if r.mixed {
		r.res.layerSampled(mUpdateP50, median(upd50s), len(onTime.latencies(isUpdate)))
	}
	if r.traffic.remaining() == 0 {
		r.res.notef("the request stream ran out before its phase ended; the last rounds are short")
	}

	if cfg.trace {
		r.loadLayers(paired, closed, open, afterSetup, afterLoad, procClosed, procLoad)
		if err := r.tracedReplay(median(p50s)); err != nil {
			return nil, err
		}
		kernelRows(cfg, r.res)
	}

	// The clock has stopped: count failures and check answers.
	var samples []sample
	for _, p := range []*phaseResult{paired, closed, open} {
		r.res.Attempted += len(p.results)
		r.res.fail(p.failed(), p.errs)
		samples = append(samples, p.samples...)
	}
	if r.mixed {
		bad := 0
		var errs []error
		for _, s := range samples {
			if s.op.kind == opUpdate {
				continue
			}
			if err := checkStructure(s, r.catalog, r.queries, r.theta, r.plan); err != nil {
				bad++
				if len(errs) < maxReportedErrs {
					errs = append(errs, fmt.Errorf("%s of query row %d: %w", s.op.kind, s.op.row, err))
				}
			}
		}
		r.res.fail(bad, errs)
		r.res.notef("%d responses checked structurally", len(samples))
	} else {
		checked := thin(samples, maxOracleChecks)
		bad, errs := checkSamples(checked, r.catalog, r.queries, cfg.clients)
		r.res.fail(bad, errs)
		r.res.notef("%d of %d retained responses checked against internal/naive", len(checked), len(samples))
	}
	r.res.finish(cfg.trace)
	return r.res, nil
}

func (r *serveRun) genInputs() {
	cfg := r.cfg
	n, cov := flatN, flatCoV
	if r.name != wlServeFlat {
		n, cov = skewN, skewCoV
	}
	n = cfg.scaled(n, 2048)
	r.catalog = genCatalog(cfg.seed, n, cov)

	if !r.mixed {
		r.queries = genQueries(cfg.seed, cfg.scaled(readPoolRows, 1024))
		pool := readPool(r.queries, 10)
		r.traffic = &opSource{ops: pool, cyclic: true, every: flatRetain}
		// Warm-up uses the pool's tail, which the cycle reaches only after
		// the result cache has long evicted it. Its first request has
		// tuneRows rows: the server fits a problem's tuning on the queries
		// of the first request that poses it (the tuner samples up to 30)
		// and caches it, and a fit on one query varies from run to run by
		// more than anything measured afterwards.
		tail := len(pool) - warmupOps
		r.warm = append([]op{topKOp(r.queries, tail, tuneRows, 10)}, pool[tail:]...)
		return
	}

	rows := mixedQueryRows(cfg.scaled(coldPoolMin, 512))
	r.queries = genQueries(cfg.seed, rows)
	r.theta = thetaForResults(r.queries.Head(min(rows, thetaSample)), r.catalog, thetaPerRow, cfg.clients)
	// Enough single-use update batches for the expected load with a wide
	// margin; the stream ends when they do.
	batches := cfg.scaled(int(400*cfg.seconds)+400, 64)
	r.plan = genUpdatePlan(cfg.seed, n, batches)
	r.traffic = &opSource{ops: mixedStream(cfg.seed, r.queries, r.theta, r.plan, 10*len(r.plan.batches)), every: mixedRetain}
	tail := rows - tuneRows
	for _, k := range mixKs {
		r.warm = append(r.warm, topKOp(r.queries, tail, tuneRows, k))
	}
	r.warm = append(r.warm, aboveOp(r.queries, tail, tuneRows, r.theta))
	for i := 0; i < warmupOps/4; i++ {
		row := rows - 1 - i
		r.warm = append(r.warm,
			topKOp(r.queries, row, 1, mixKs[i%len(mixKs)]),
			topKOp(r.queries, row, 1, mixKs[(i+1)%len(mixKs)]),
			aboveOp(r.queries, row, 1, r.theta))
	}
	r.warm = append(r.warm, topKOp(r.queries, hotPool, multiRows, 10))
}

func (r *serveRun) serverConfig() server.Config {
	cfg := server.Config{Shards: numShards, BatchWindow: batchWindow}
	if r.mixed {
		cfg.Placement = "cluster"
		cfg.Options.Quantize = true
		cfg.CompactFraction = mixedCompactFraction
	}
	return cfg
}

// writeSnapshots builds serve_mixed's server once, pretunes it as
// lemp-serve -save-snapshot does, and writes one snapshot per shard; every
// set-up then restores from these files.
func (r *serveRun) writeSnapshots() error {
	t0 := time.Now()
	srv, err := server.New(r.catalog, r.serverConfig())
	if err != nil {
		return err
	}
	build := time.Since(t0)
	for i, ix := range srv.Sharded().Indexes() {
		if err := ix.PretuneTopK(r.queries.Head(256), 10); err != nil {
			return fmt.Errorf("pretuning shard %d: %w", i, err)
		}
	}
	dir := filepath.Join(r.cfg.outDir, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t0 = time.Now()
	err = srv.WriteSnapshotsWith(func(i, _ int) (io.WriteCloser, error) {
		name := filepath.Join(dir, fmt.Sprintf("%s.snap.%d", r.name, i))
		r.snapFiles = append(r.snapFiles, name)
		return os.Create(name)
	}, lemp.SnapshotOptions{IncludeLists: true})
	if err != nil {
		return err
	}
	write := time.Since(t0)
	for _, name := range r.snapFiles {
		fi, err := os.Stat(name)
		if err != nil {
			return err
		}
		r.snapBytes += fi.Size()
	}
	r.res.layer("core.build_s", build.Seconds())
	r.res.layer("snapshot.write_s", write.Seconds())
	r.res.layer("snapshot.bytes_per_probe_byte", float64(r.snapBytes)/float64(r.catalog.N()*dim*8))
	return nil
}

// setup brings a server from "catalog in memory" (or "snapshots on disk")
// to "warm-up answered": build or restore, listen, and the warm-up requests
// that build the lazy bucket indexes and cache the tunings.
func (r *serveRun) setup() (setup, restore time.Duration, err error) {
	t0 := time.Now()
	if r.mixed {
		r.srv, err = r.restore()
		restore = time.Since(t0)
	} else {
		r.srv, err = server.New(r.catalog, r.serverConfig())
	}
	if err != nil {
		return 0, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	r.hs = &http.Server{Handler: r.srv.Handler()}
	go r.hs.Serve(ln)
	r.base = "http://" + ln.Addr().String()
	c := &httpCaller{client: r.client, base: r.base}
	for i := range r.warm {
		if _, err := c.call(&r.warm[i]); err != nil {
			return 0, 0, fmt.Errorf("warm-up %s: %w", r.warm[i].kind, err)
		}
	}
	return time.Since(t0), restore, nil
}

// restore boots serve_mixed's server from the snapshot files: the restart
// path, under the placement and screening the snapshots were written with.
func (r *serveRun) restore() (*server.Server, error) {
	readers := make([]io.Reader, len(r.snapFiles))
	for i, name := range r.snapFiles {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		readers[i] = f
	}
	return server.NewFromSnapshot(readers, server.Config{
		Placement: "cluster", Quant: lemp.QuantOn, BatchWindow: batchWindow, CompactFraction: mixedCompactFraction,
	})
}

// teardown stops the HTTP server and waits for it.
func (r *serveRun) teardown() {
	if r.hs == nil {
		return
	}
	// The client's spare connections go first: one the server has accepted
	// but seen no request on counts as busy for Shutdown's first 5 seconds.
	r.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.hs.Shutdown(ctx)
	r.hs, r.srv = nil, nil
}

// serverStats is the part of GET /stats and GET /metrics the ledger reads.
type serverStats struct {
	Requests  uint64 `json:"requests"`
	Batches   uint64 `json:"batches"`
	BatchRows uint64 `json:"batch_rows"`
	Shed      struct {
		ShedTotal uint64 `json:"shed_total"`
	} `json:"shed"`
	ShardsScanned uint64 `json:"shards_scanned"`
	ShardsPruned  uint64 `json:"shards_pruned"`
	Cache         struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Quant struct {
		Screened     int64 `json:"screened"`
		Survivors    int64 `json:"survivors"`
		SidecarBytes int   `json:"sidecar_bytes"`
	} `json:"quant"`
	Core struct {
		Queries        int   `json:"queries"`
		Candidates     int64 `json:"candidates"`
		Results        int64 `json:"results"`
		BlockVerified  int64 `json:"block_verified"`
		ScalarVerified int64 `json:"scalar_verified"`
		ProcessedPairs int64 `json:"processed_pairs"`
		PrunedPairs    int64 `json:"pruned_pairs"`
		Tunings        int   `json:"tunings"`
		TuneCacheHits  int   `json:"tune_cache_hits"`
		PrepNS         int64 `json:"prep_ns"`
		TuneNS         int64 `json:"tune_ns"`
	} `json:"core"`

	// From /metrics: the batch-wait histogram.
	batchWaitSum   float64
	batchWaitCount float64
	compactions    uint64
}

// get serves a GET from the handler in memory.
func (r *serveRun) get(path string) (*bytes.Buffer, error) {
	rec := httptest.NewRecorder()
	r.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	return rec.Body, nil
}

func (r *serveRun) readStats() (*serverStats, error) {
	body, err := r.get("/stats")
	if err != nil {
		return nil, err
	}
	var st serverStats
	if err := json.Unmarshal(body.Bytes(), &st); err != nil {
		return nil, fmt.Errorf("decoding /stats: %w", err)
	}
	body, err = r.get("/metrics")
	if err != nil {
		return nil, err
	}
	fams, err := obs.ParseExposition(body)
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	if fam := fams["lemp_batch_wait_seconds"]; fam != nil {
		for _, s := range fam.Samples {
			switch s.Name {
			case "lemp_batch_wait_seconds_sum":
				st.batchWaitSum = s.Value
			case "lemp_batch_wait_seconds_count":
				st.batchWaitCount = s.Value
			}
		}
	}
	st.compactions = r.srv.Sharded().Compactions()
	return &st, nil
}

// loadLayers derives the per-layer counters of the untraced load from the
// server's own /stats and /metrics (differences across closed + open
// phases; the reference server has counters of its own) and from process
// counters, which cover the closed phase on the program only.
func (r *serveRun) loadLayers(paired, closed, open *phaseResult, setup, load *serverStats, procClosed, procLoad procSnapshot) {
	res := r.res
	d := func(a, b uint64) float64 { return float64(b - a) }
	di := func(a, b int64) float64 { return float64(b - a) }

	if !r.mixed {
		res.layer("core.build_s", float64(setup.Core.PrepNS)/1e9)
	}
	res.layer("core.tune_s", float64(setup.Core.TuneNS)/1e9)

	hits, misses := d(setup.Cache.Hits, load.Cache.Hits), d(setup.Cache.Misses, load.Cache.Misses)
	res.layer("server.cache.hit_share", ratio(hits, hits+misses))
	res.layer("server.batcher.wait_us", 1e6*ratio(load.batchWaitSum-setup.batchWaitSum, load.batchWaitCount-setup.batchWaitCount))
	res.layer("server.batcher.rows_per_dispatch", ratio(d(setup.BatchRows, load.BatchRows), d(setup.Batches, load.Batches)))
	sent := float64(len(paired.results) + len(closed.results) + len(open.results))
	res.layer("server.shed_share", ratio(d(setup.Shed.ShedTotal, load.Shed.ShedTotal), sent))
	scanned, pruned := d(setup.ShardsScanned, load.ShardsScanned), d(setup.ShardsPruned, load.ShardsPruned)
	res.layer("server.sharded.shards_pruned_share", ratio(pruned, scanned+pruned))
	res.layer("server.update.compactions", d(setup.compactions, load.compactions))

	c0, c1 := setup.Core, load.Core
	cand := di(c0.Candidates, c1.Candidates)
	res.layer("core.candidates_per_query", ratio(cand, float64(c1.Queries-c0.Queries)))
	block, scalar := di(c0.BlockVerified, c1.BlockVerified), di(c0.ScalarVerified, c1.ScalarVerified)
	res.layer("core.block_verified_share", ratio(block, block+scalar))
	prunedPairs, processed := di(c0.PrunedPairs, c1.PrunedPairs), di(c0.ProcessedPairs, c1.ProcessedPairs)
	res.layer("core.pruned_pair_share", ratio(prunedPairs, prunedPairs+processed))
	res.layer("core.result_share", ratio(di(c0.Results, c1.Results), cand))
	tunings, tuneHits := float64(c1.Tunings-c0.Tunings), float64(c1.TuneCacheHits-c0.TuneCacheHits)
	res.layer("core.tune_cache_hit_share", ratio(tuneHits, tuneHits+tunings))
	var mass float64
	for _, ix := range r.srv.Sharded().Indexes() {
		mass = max(mass, ix.DeltaMass())
	}
	res.layer("core.delta_mass", mass)

	screened, survived := di(setup.Quant.Screened, load.Quant.Screened), di(setup.Quant.Survivors, load.Quant.Survivors)
	res.layer("quant.screened_share", ratio(screened, screened+survived))
	res.layer("quant.sidecar_mb", float64(load.Quant.SidecarBytes)/1e6)

	ops := float64(len(closed.results))
	res.layer("proc.cpu_ms_per_op", ratio(float64(procClosed.cpu)/1e6, ops))
	res.layer("go.allocs_per_op", ratio(float64(procClosed.mallocs), ops))
	res.layer("go.alloc_kb_per_op", ratio(float64(procClosed.bytes)/1e3, ops))
	res.layer("go.gc_pause_ms", float64(procLoad.gcPause)/1e6)
	res.layer("proc.rss_peak_mb", rssPeakMB())

	late, lateP99 := lateness(open.results, r.interval)
	var delays []time.Duration
	for _, o := range open.results {
		delays = append(delays, max(o.delay, 0))
	}
	du := usOf(delays)
	res.notef("send delay after the due time (us): p50 %.0f, p90 %.0f, p99 %.0f", percentile(du, 0.5), percentile(du, 0.9), percentile(du, 0.99))
	res.layer("gen.late_share", late)
	res.layer("gen.late_p99_us", lateP99)
}
