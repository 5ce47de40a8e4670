// Command lemp-serve runs a long-lived LEMP query server: it loads (or
// synthesizes) a probe matrix, shards it across independent LEMP indexes,
// and answers Row-Top-k and Above-θ queries over HTTP, micro-batching
// concurrent requests into single whole-matrix retrieval calls.
//
// Batching is continuous: a request arriving at an idle index dispatches
// immediately — no window penalty at low load — and under load batches
// dispatch back-to-back the moment the previous retrieval completes, with
// -batch-window and -batch-max as upper bounds (-batch-window 0 disables
// coalescing). Admission control sheds load before it queues: when forming
// batches hold ≥ -shed-queue-rows query rows, or more than -shed-inflight
// requests are in flight, new retrieval requests get 429 with a
// Retry-After header instead of joining an unboundedly deep queue (see
// lemp_requests_shed_total and the shed block in /stats).
//
// Usage:
//
//	lemp-serve -p items.p -shards 4                       # serve a matrix file
//	lemp-serve -profile Smoke -addr :9000 -batch-window 2ms
//	lemp-serve -profile Smoke -save-snapshot idx          # build once, persist
//	lemp-serve -snapshot idx                              # restart without tuning
//
// Snapshots: -save-snapshot writes one LEMPIDX1 file per shard (path for a
// single shard, path.0 … path.N-1 otherwise) after pretuning each shard, so
// a later -snapshot startup skips the tuning (and, with the lists saved, their
// builds); it bucketizes the probes again and checks the stored buckets.
// -snapshot restores that partition, whichever placement built it. Pass
// -shards with a different count, or -rebalance-on-load, to re-place the
// restored live probes instead: a fresh build under -placement, ids
// preserved.
//
// Placement (-placement) decides which probes share a shard when shards are
// built, and nothing else: "range" splits the catalog into contiguous
// equal-count runs, "cluster" groups directionally similar probes via
// spherical k-means. Every query reaches every shard, and every add goes to
// the shard with the least estimated scan cost.
//
// Endpoints:
//
//	POST /v1/topk        {"queries": [[...], ...], "k": 10}
//	POST /v1/above       {"queries": [[...], ...], "theta": 0.9}
//	POST /v1/update      {"updates": [{"op": "add", "vector": [...]},
//	                                  {"op": "remove", "id": 3},
//	                                  {"op": "update", "id": 2, "vector": [...]}]}
//	GET  /healthz        liveness + index shape + update epoch
//	GET  /readyz         readiness: 503 while building/restoring and while draining
//	GET  /stats          server counters and cumulative retrieval stats
//	GET  /metrics        Prometheus text exposition
//	GET  /debug/traces   retained request traces (tail-sampled; slow requests always)
//	GET  /debug/pprof/   runtime profiles (only with -pprof)
//
// The listener opens before the index builds: during a long build or
// snapshot restore, /healthz answers 200 (the process is alive) and
// /readyz answers 503 "starting", so orchestrators can distinguish a warm-
// up from a wedge. On SIGINT/SIGTERM the server marks itself draining
// (/readyz flips to 503 so load balancers stop routing here), waits
// -drain-grace, then shuts the listener down and lets in-flight requests
// finish.
//
// The probe set is live: /v1/update applies atomic batches of adds,
// removes and replaces. Small changes land in per-shard delta buckets;
// once a shard's accumulated drift exceeds -compact-frac of its live
// probes, the shard re-bucketizes. Every batch advances the epoch; queries
// are epoch-consistent (a response never mixes pre- and post-update
// vectors). A -save-snapshot taken after updates persists the
// compacted live probe set with ids preserved.
//
// Retrieval uses all CPU cores by default: each shard runs with
// Options.Parallelism = NumCPU/shards, so one dispatched batch fanning out
// across every shard saturates the machine without oversubscribing it
// (override with -parallel; the paper's measurements are single-threaded,
// but a server owns its machine).
//
// Serving is context-aware end to end: a client that disconnects stops
// contributing to its micro-batch, and once every batch-mate is gone the
// underlying shard scans abort mid-bucket; -request-timeout adds a
// per-request deadline with the same behavior. Repeat queries with the
// same k or θ reuse fitted per-bucket tuning parameters through a shared
// tuning cache, so small-batch serving stops re-paying §4.4 sample tuning
// on every call (visible as tunings vs tune_cache_hits in /stats).
//
// Observability: every request is traced (id in the X-Lemp-Trace response
// header); requests slower than -slow-query are logged with per-phase
// timings and always retained in /debug/traces, fast ones are retained
// with probability -trace-sample. Logs are structured (log/slog, text by
// default, -log-json for JSON) at -log-level; the access log is at debug
// level.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"lemp"
	"lemp/internal/data"
	"lemp/internal/server"
)

// logger is the process-wide structured logger, configured from -log-level
// and -log-json before any other work.
var logger *slog.Logger

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	pPath := flag.String("p", "", "probe matrix file (columns of P as vectors)")
	profileName := flag.String("profile", "", "synthesize the probe side of a dataset profile instead of loading -p (e.g. Smoke, Netflix)")
	snapshotPath := flag.String("snapshot", "", "restore shard indexes from LEMPIDX1 snapshots (path, or path.0..path.N-1 as written by -save-snapshot) instead of building them")
	saveSnapshot := flag.String("save-snapshot", "", "after building, pretune and write one snapshot per shard (path for 1 shard, else path.0..path.N-1), then serve")
	shards := flag.Int("shards", 4, "number of index shards")
	placementName := flag.String("placement", "range", "how a shard build partitions the catalog: range (contiguous equal-count) or cluster (spherical k-means); with -snapshot it applies only when the restore re-places")
	rebalanceOnLoad := flag.Bool("rebalance-on-load", false, "with -snapshot, re-place the restored probe set under -placement even when -shards matches the snapshot count")
	algName := flag.String("alg", "LI", "bucket algorithm: L LI LC I C (L never tunes; the others run the paper's sample tuner, §4.4, on each new problem)")
	phi := flag.Int("phi", 0, "fixed focus-set size φ (0 = tuned per bucket)")
	quantize := flag.Bool("quant", false, "build the int8 screening sidecars eagerly and screen every candidate set (results stay exact; ~1 byte per probe per dimension); snapshots record the option and re-quantize on restore. Without it the server screens by itself where the int8 kernels are assembly (/stats \"kernels\": \"avx2\"), building sidecars lazily for the buckets queries reach; the flag adds the eager build and, on the portable kernels, the screen itself, which loses there. With -snapshot, given explicitly it forces the option on or off regardless of what the snapshots recorded")
	parallel := flag.Int("parallel", 0, "retrieval goroutines per shard (0 = NumCPU/shards, so one batch uses all cores)")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "upper bound on how long requests wait to coalesce (0 disables batching)")
	batchMax := flag.Int("batch-max", 256, "maximum query rows per combined batch")
	shedQueueRows := flag.Int("shed-queue-rows", 16384, "reject retrieval requests with 429 while this many query rows wait in forming batches (0 or negative disables)")
	shedInflight := flag.Int("shed-inflight", 4096, "reject retrieval requests with 429 past this many in-flight requests (0 or negative disables)")
	pretuneK := flag.Int("pretune-k", 10, "k used by -save-snapshot's pretuning pass")
	snapshotLists := flag.Bool("snapshot-lists", true, "with -save-snapshot, also persist the per-bucket sorted-list indexes (larger files; a restored server's first batch skips the list rebuild)")
	compactFrac := flag.Float64("compact-frac", 0.25, "re-bucketize a shard when its delta mass (tombstones+overlay per live probe) exceeds this fraction (negative disables)")
	maxUpdateOps := flag.Int("max-update-ops", 4096, "maximum ops per /v1/update batch (negative disables the limit)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request retrieval deadline; expired requests abort their shard scans mid-bucket and return 503 (0 disables)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error (the per-request access log is at debug)")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	slowQuery := flag.Duration("slow-query", 500*time.Millisecond, "requests slower than this are logged with per-phase timings and always retained in /debug/traces (0 disables)")
	traceSample := flag.Float64("trace-sample", 0.01, "probability a fast request's trace is retained in /debug/traces (slow requests are always retained)")
	traceRing := flag.Int("trace-ring", 256, "capacity of the retained-trace ring behind /debug/traces")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	drainGrace := flag.Duration("drain-grace", 0, "after a shutdown signal, keep serving for this long with /readyz failing, so load balancers drain before the listener closes")
	flag.Parse()

	logger = newLogger(*logLevel, *logJSON)

	sources := 0
	for _, set := range []bool{*pPath != "", *profileName != "", *snapshotPath != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		fail("specify exactly one of -p, -profile or -snapshot")
	}
	alg, err := lemp.ParseAlgorithm(*algName)
	if err != nil {
		fail("%v", err)
	}
	if _, err := server.ParsePlacement(*placementName); err != nil {
		fail("%v", err)
	}
	if *shedQueueRows <= 0 {
		// On the CLI, 0 naturally reads as "never shed"; the Config zero
		// value means "default" per the library convention.
		*shedQueueRows = -1
	}
	if *shedInflight <= 0 {
		*shedInflight = -1
	}
	if *compactFrac == 0 {
		// On the CLI, 0 naturally reads as "compact on any drift"; keep it
		// by nudging below the Config zero value's "default" meaning.
		*compactFrac = 1e-9
	}
	cfg := server.Config{
		Shards:             *shards,
		Placement:          *placementName,
		RebalanceOnLoad:    *rebalanceOnLoad,
		Options:            lemp.Options{Algorithm: alg, Phi: *phi, Parallelism: *parallel, Quantize: *quantize},
		BatchWindow:        *batchWindow,
		BatchMax:           *batchMax,
		ShedQueueRows:      *shedQueueRows,
		ShedInflight:       *shedInflight,
		MaxUpdateOps:       *maxUpdateOps,
		CompactFraction:    *compactFrac,
		RequestTimeout:     *requestTimeout,
		Logger:             logger,
		SlowQueryThreshold: *slowQuery,
		TraceSampleRate:    *traceSample,
		TraceRingSize:      *traceRing,
		EnablePprof:        *pprofFlag,
	}

	// Open the listener before building the index, behind a switchable
	// handler: a long build or snapshot restore still answers /healthz 200
	// (alive) and /readyz 503 "starting", so orchestrators can tell a
	// warm-up from a wedge, and the address is claimed (and its errors
	// surfaced) immediately.
	var handler atomic.Value // http.Handler
	handler.Store(bootHandler())
	httpSrv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handler.Load().(http.Handler).ServeHTTP(w, r)
		}),
		// Bound slow/idle clients; no WriteTimeout so large legitimate
		// result sets can stream out.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("%v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	var srv *server.Server
	if *snapshotPath != "" {
		// A restore keeps the snapshot's own shard count unless -shards was
		// given explicitly: the default describes a fresh build, not an
		// instruction to re-partition a stored one.
		if !flagSet("shards") {
			cfg.Shards = 0
		}
		// An explicit -quant overrides the snapshots' recorded Quantize
		// option in either direction; by default they restore as written.
		if flagSet("quant") {
			if *quantize {
				cfg.Quant = lemp.QuantOn
			} else {
				cfg.Quant = lemp.QuantOff
			}
		}
		srv = loadSnapshots(*snapshotPath, cfg)
	} else {
		var probe *lemp.Matrix
		if *pPath != "" {
			probe, err = lemp.LoadMatrix(*pPath)
			if err != nil {
				fail("loading %s: %v", *pPath, err)
			}
		} else {
			profile, err := data.ByName(*profileName)
			if err != nil {
				fail("%v", err)
			}
			logger.Info("synthesizing probe matrix",
				"profile", profile.Name, "vectors", profile.N, "dim", profile.R)
			_, probe = profile.Generate()
		}
		srv, err = server.New(probe, cfg)
		if err != nil {
			fail("%v", err)
		}
	}

	if *saveSnapshot != "" {
		saveSnapshots(srv, *saveSnapshot, *pretuneK, *snapshotLists)
	}

	par := "auto (NumCPU/shards)"
	if *parallel > 0 {
		par = fmt.Sprint(*parallel)
	}
	logger.Info("serving",
		"probes", srv.Sharded().N(),
		"dim", srv.Sharded().R(),
		"shards", srv.Sharded().NumShards(),
		"addr", *addr,
		"batch_window", batchWindow.String(),
		"batch_max", *batchMax,
		"parallelism", par,
	)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// Fail readiness first so load balancers stop routing here, give
		// them -drain-grace to notice, then close the listener and let
		// in-flight requests finish.
		srv.BeginDrain()
		logger.Info("shutdown signal received; draining", "grace", drainGrace.String())
		if *drainGrace > 0 {
			time.Sleep(*drainGrace)
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()

	// The build is done: swap in the real handler. Readiness flips with it
	// (the server constructs ready), so /readyz answers 200 from here on.
	handler.Store(srv.Handler())

	err = <-serveErr
	if err != nil && err != http.ErrServerClosed {
		fail("%v", err)
	}
	// Shutdown closed the listener; wait until in-flight requests drain.
	<-drained
	logger.Info("shut down")
}

// newLogger builds the process logger from -log-level and -log-json.
func newLogger(level string, jsonOut bool) *slog.Logger {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		fmt.Fprintf(os.Stderr, "lemp-serve: invalid -log-level %q (want debug, info, warn or error)\n", level)
		os.Exit(2)
	}
	opts := &slog.HandlerOptions{Level: lv}
	if jsonOut {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts))
}

// bootHandler serves while the index is still building or restoring:
// alive but not ready.
func bootHandler() http.Handler {
	starting := func(w http.ResponseWriter, status int) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		fmt.Fprintln(w, `{"status":"starting"}`)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		starting(w, http.StatusOK)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		starting(w, http.StatusServiceUnavailable)
	})
	return mux
}

// flagSet reports whether a flag was given explicitly (as opposed to
// resting at its default), which decides whether a snapshot restore keeps
// the snapshot's own shard count or re-partitions.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// snapshotFiles resolves the file set behind -snapshot path: the file
// itself, or the path.0..path.N-1 series written for a multi-shard server.
// A bare file and a numbered series together are ambiguous (a stale
// snapshot from a save with a different shard count) and fail loudly
// rather than silently picking one.
func snapshotFiles(path string) []string {
	_, bareErr := os.Stat(path)
	var files []string
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s.%d", path, i)
		if _, err := os.Stat(name); err != nil {
			break
		}
		files = append(files, name)
	}
	if bareErr == nil && len(files) > 0 {
		fail("both %s and %s.0 exist; remove the stale one (saves with different -shards leave both forms behind)", path, path)
	}
	if bareErr == nil {
		return []string{path}
	}
	if len(files) == 0 {
		fail("no snapshot at %s (or %s.0...)", path, path)
	}
	return files
}

// loadSnapshots restores a server from snapshot files. A -shards
// disagreeing with the snapshot count (or -rebalance-on-load) is handled
// inside NewFromSnapshot, which re-places the restored probe set under
// -placement — ids preserved, index build re-paid only then.
func loadSnapshots(path string, cfg server.Config) *server.Server {
	files := snapshotFiles(path)
	start := time.Now()
	readers := make([]io.Reader, len(files))
	handles := make([]*os.File, len(files))
	for i, name := range files {
		f, err := os.Open(name)
		if err != nil {
			fail("%v", err)
		}
		handles[i] = f
		readers[i] = f
	}
	srv, err := server.NewFromSnapshot(readers, cfg)
	for _, f := range handles {
		f.Close()
	}
	if err != nil {
		fail("restoring snapshots: %v", err)
	}
	msg := "restored shards from snapshots (buckets checked, tuning skipped)"
	if srv.Sharded().NumShards() != len(files) || cfg.RebalanceOnLoad {
		msg = "restored and re-partitioned shards from snapshots"
	}
	logger.Info(msg,
		"snapshots", len(files),
		"shards", srv.Sharded().NumShards(),
		"path", path,
		"elapsed", time.Since(start).Round(time.Millisecond).String())
	return srv
}

// saveSnapshots pretunes every shard on a sample of its own probes, then
// writes one snapshot file per shard (atomically, via rename). Pretuning
// freezes the fitted per-bucket parameters into the snapshots, so a later
// -snapshot restart serves with zero tuning time; with lists enabled the
// sorted-list indexes the pretuning pass built ride along, so the restart
// also skips their first-use rebuild.
func saveSnapshots(srv *server.Server, path string, k int, lists bool) {
	start := time.Now()
	ixs := srv.Sharded().Indexes()
	for i, ix := range ixs {
		if err := ix.PretuneTopK(pretuneSample(ix.Probe()), k); err != nil {
			fail("pretuning shard %d: %v", i, err)
		}
	}
	err := srv.WriteSnapshotsWith(func(i, n int) (io.WriteCloser, error) {
		name := path
		if n > 1 {
			name = fmt.Sprintf("%s.%d", path, i)
		}
		return newAtomicFile(name)
	}, lemp.SnapshotOptions{IncludeLists: lists})
	if err != nil {
		fail("saving snapshots: %v", err)
	}
	removeStaleSnapshots(path, len(ixs))
	logger.Info("pretuned and saved shard snapshots",
		"shards", len(ixs), "path", path, "elapsed", time.Since(start).Round(time.Millisecond).String())
}

// removeStaleSnapshots deletes leftover files of the same snapshot family
// that a previous save with a different shard count left behind: without
// this, a later -snapshot restart would glob them in and silently assemble
// extra shards of duplicated probes (or prefer a stale single-file snapshot
// over the fresh numbered set).
func removeStaleSnapshots(path string, n int) {
	stale := func(name string) {
		if _, err := os.Stat(name); err != nil {
			return
		}
		if err := os.Remove(name); err != nil {
			fail("removing stale snapshot %s: %v", name, err)
		}
		logger.Info("removed stale snapshot (previous save used a different shard count)", "path", name)
	}
	if n > 1 {
		stale(path) // a single-file snapshot would shadow the numbered set
	}
	start := n
	if n == 1 {
		start = 0 // the fresh snapshot is the bare path; every .i is stale
	}
	for i := start; ; i++ {
		name := fmt.Sprintf("%s.%d", path, i)
		if _, err := os.Stat(name); err != nil {
			break
		}
		if err := os.Remove(name); err != nil {
			fail("removing stale snapshot %s: %v", name, err)
		}
		logger.Info("removed stale snapshot (previous save used a different shard count)", "path", name)
	}
}

// pretuneSample spreads up to 256 probe vectors of m into a query sample
// for pretuning (the self-join workload the paper uses for its IE
// datasets).
func pretuneSample(m *lemp.Matrix) *lemp.Matrix {
	const want = 256
	n := m.N()
	if n <= want {
		return m
	}
	sample := lemp.NewMatrix(m.R(), want)
	for i := 0; i < want; i++ {
		copy(sample.Vec(i), m.Vec(i*n/want))
	}
	return sample
}

// atomicFile writes through a temporary file renamed into place on Close,
// so a crash mid-write never leaves a truncated snapshot behind. Abort
// discards the temp file without renaming; WriteSnapshotsWith calls it when a
// write fails partway, so a failed save never replaces an existing good
// snapshot with a truncated one.
type atomicFile struct {
	f    *os.File
	name string
}

func newAtomicFile(name string) (*atomicFile, error) {
	f, err := os.CreateTemp(filepath.Dir(name), filepath.Base(name)+".tmp*")
	if err != nil {
		return nil, err
	}
	return &atomicFile{f: f, name: name}, nil
}

func (a *atomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

func (a *atomicFile) Abort() error {
	a.f.Close()
	return os.Remove(a.f.Name())
}

func (a *atomicFile) Close() error {
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		os.Remove(a.f.Name())
		return err
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.f.Name())
		return err
	}
	return os.Rename(a.f.Name(), a.name)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lemp-serve: "+format+"\n", args...)
	os.Exit(2)
}
