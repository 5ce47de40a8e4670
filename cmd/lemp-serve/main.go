// Command lemp-serve runs a long-lived LEMP query server: it loads (or
// synthesizes) a probe matrix, builds one LEMP index over it, and answers
// Row-Top-k and Above-θ queries over HTTP. Each request is one retrieval
// call on its own goroutine: its query rows reach the index as one matrix,
// and no request waits for another.
//
// Admission control sheds load before it queues: when admitted requests not
// yet answered hold ≥ -shed-queue-rows query rows, or more than
// -shed-inflight requests are in flight, new retrieval requests get 429 with
// a Retry-After header instead of piling up (see lemp_requests_shed_total
// and the shed block in /stats).
//
// Usage:
//
//	lemp-serve -p items.p                                 # serve a matrix file
//	lemp-serve -profile Smoke -addr :9000
//	lemp-serve -profile Smoke -save-snapshot idx          # build once, persist
//	lemp-serve -snapshot idx                              # restart from the file
//
// The index runs LENGTH (§4.1) with the int8 screen: no request tunes and no
// bucket builds sorted lists.
//
// Snapshots: -save-snapshot writes the index's catalog (options, live probes,
// ids, mutation marks) to one LEMPIDX1 file; a later -snapshot startup builds
// the index over it, as a start from the matrix does. A file of another bucket algorithm (from earlier builds, or
// written by the library) and a set path.0 … path.N-1 that builds whose
// server split its catalog into shards wrote, one file per shard, still
// restore: they are rebuilt as one LENGTH index, ids and the AutoID mark
// kept.
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
// removes and replaces. Small changes land in delta buckets; once the
// accumulated drift exceeds -compact-frac of the live probes, the index
// re-bucketizes. Every batch advances the epoch; queries
// are epoch-consistent (a response never mixes pre- and post-update
// vectors). A -save-snapshot taken after updates persists the
// compacted live probe set with ids preserved.
//
// The index uses all CPU cores by default: Options.Parallelism = NumCPU, for
// the build and for each retrieval call (override with -parallel; the
// paper's measurements are single-threaded, but a server owns its machine).
//
// Serving is context-aware end to end: when a client disconnects, its
// request's scan aborts mid-bucket; -request-timeout adds a
// per-request deadline with the same behavior.
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
	snapshotPath := flag.String("snapshot", "", "restore the index from the LEMPIDX1 snapshot at this path (a path.0..path.N-1 set of shard snapshots from earlier builds is joined into one index) instead of building it")
	saveSnapshot := flag.String("save-snapshot", "", "after building, write the index's snapshot to this path, then serve")
	quantize := flag.Bool("quant", false, "screen every candidate set with the int8 sidecars (results stay exact; ~1 byte per probe per dimension of the buckets queries reach, each sidecar built on first screened use); snapshots record the option. Without it the server screens by itself where the int8 kernels are assembly (/stats \"kernels\": \"avx2\" or \"avx2+avx512vnni\"), only the candidate sets of at least eight; the flag screens every set and, on the portable kernels, adds the screen itself, which loses there. With -snapshot, given explicitly it forces the option on or off regardless of what the snapshot recorded")
	parallel := flag.Int("parallel", 0, "goroutines of the index build and of each retrieval call (0 = NumCPU)")
	shedQueueRows := flag.Int("shed-queue-rows", 16384, "reject retrieval requests with 429 while admitted requests not yet answered hold this many query rows (0 or negative disables)")
	shedInflight := flag.Int("shed-inflight", 4096, "reject retrieval requests with 429 past this many in-flight requests (0 or negative disables)")
	compactFrac := flag.Float64("compact-frac", 0.25, "re-bucketize the index when its delta mass (tombstones+overlay per live probe) exceeds this fraction (negative disables)")
	maxUpdateOps := flag.Int("max-update-ops", 4096, "maximum ops per /v1/update batch (negative disables the limit)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request retrieval deadline; expired requests abort their scan mid-bucket and return 503 (0 disables)")
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
		Options:            lemp.Options{Parallelism: *parallel, Quantize: *quantize},
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
		// An explicit -quant overrides the snapshot's recorded Quantize
		// option in either direction; by default it restores as written.
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
		saveSnapshots(srv, *saveSnapshot)
	}

	par := "auto (NumCPU)"
	if *parallel > 0 {
		par = fmt.Sprint(*parallel)
	}
	logger.Info("serving",
		"probes", srv.Sharded().N(),
		"dim", srv.Sharded().R(),
		"addr", *addr,
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
// the snapshot's own Quantize option.
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
// itself, or the path.0..path.N-1 series builds whose server split its
// catalog into shards wrote. A bare file and a numbered series together are
// ambiguous (a stale set beside a newer save) and fail loudly rather than
// silently picking one.
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
		fail("both %s and %s.0 exist; remove the stale one (a shard set from an earlier build beside a newer save)", path, path)
	}
	if bareErr == nil {
		return []string{path}
	}
	if len(files) == 0 {
		fail("no snapshot at %s (or %s.0...)", path, path)
	}
	return files
}

// loadSnapshots restores a server from snapshot files: one, or a shard set
// from earlier builds, which NewFromSnapshot joins into one index.
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
	msg := "restored the index from its snapshot"
	if len(files) > 1 {
		msg = "joined a shard snapshot set into one index"
	}
	logger.Info(msg,
		"snapshots", len(files),
		"path", path,
		"elapsed", time.Since(start).Round(time.Millisecond).String())
	return srv
}

// saveSnapshots writes the index's snapshot to path (atomically, via
// rename).
func saveSnapshots(srv *server.Server, path string) {
	start := time.Now()
	err := srv.WriteSnapshotsWith(func(int, int) (io.WriteCloser, error) {
		return newAtomicFile(path)
	}, lemp.SnapshotOptions{})
	if err != nil {
		fail("saving the snapshot: %v", err)
	}
	removeStaleSnapshots(path)
	logger.Info("saved the index snapshot",
		"path", path, "elapsed", time.Since(start).Round(time.Millisecond).String())
}

// removeStaleSnapshots deletes the path.0..path.N-1 shard set an earlier
// build may have left at the same path: beside the fresh file it would make
// a later -snapshot restart ambiguous (snapshotFiles refuses both).
func removeStaleSnapshots(path string) {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s.%d", path, i)
		if _, err := os.Stat(name); err != nil {
			break
		}
		if err := os.Remove(name); err != nil {
			fail("removing stale snapshot %s: %v", name, err)
		}
		logger.Info("removed a stale shard snapshot of an earlier build", "path", name)
	}
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
