package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"lemp"
	"lemp/internal/vecmath"
)

// batch_offline drives the library with no HTTP at all: a bulk Row-Top-k
// job over queries streamed from a LEMPMAT1 file against the flat catalog,
// a bulk Above-θ job against the skew catalog with int8 screening on, then
// single-row Index.Retrieve calls on the flat index. The jobs and the calls
// run offlineReps times, each time on fresh indexes, so tuning is paid
// inside the job as the paper counts it. The reference work (ref.go) is
// timed before, between and after the jobs with as many goroutines as the
// jobs have workers, and call by call between the Retrieve calls.
const (
	offlineReps    = 3
	topKJobRows    = 2048   // at refSeconds
	aboveJobRows   = 180000 // at refSeconds: about a third of the top-k job's time
	bulkChecked    = 256    // rows of each job compared with the oracle
	retrieveShare  = 0.25   // of the measuring time, for single-row Retrieve calls
	retrieveRounds = 3      // per repetition
	refPasses      = 16     // scans of the reference region per timing beside a job (10 ms),
	refTimings     = 30     // and timings per sample: their median is the sample
)

type offlineRun struct {
	cfg *config
	res *workloadResult
	dir string

	flat, skew     *lemp.Matrix
	topKQ, aboveQ  *lemp.Matrix
	theta          float64
	topKFile       string
	ixFlat, ixSkew *lemp.Index
	rec            *recorder
}

func runOffline(cfg *config) (*workloadResult, error) {
	r := &offlineRun{cfg: cfg, res: newWorkloadResult(wlBatchOffline, cfg.spec), dir: filepath.Join(cfg.outDir, "tmp"), rec: newRecorder()}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	sizing := cfg.seconds / refSeconds
	r.flat = genCatalog(cfg.seed, cfg.scaled(flatN, 2048), flatCoV)
	r.skew = genCatalog(cfg.seed, cfg.scaled(skewN, 2048), skewCoV)
	nTop := cfg.scaled(int(topKJobRows*sizing), 64)
	nAbove := cfg.scaled(int(aboveJobRows*sizing), 256)
	all := genQueries(cfg.seed, nTop+nAbove)
	r.topKQ, r.aboveQ = all.Slice(0, nTop), all.Slice(nTop, nTop+nAbove)
	r.theta = thetaForResults(r.aboveQ.Head(min(thetaSample, nAbove)), r.skew, thetaPerRow, cfg.clients)
	r.topKFile = filepath.Join(r.dir, "batch_offline.queries.mat")
	if err := writeMatrixFile(r.topKFile, r.topKQ); err != nil {
		return nil, err
	}

	ctx := context.Background()
	opts := lemp.BulkOptions{Parallelism: cfg.clients}
	outTop := filepath.Join(r.dir, "batch_offline.topk.brs")
	outAbove := filepath.Join(r.dir, "batch_offline.above.brs")
	refQ := all.Vec(0)
	refRows := cfg.scaled(flatRefRows, 64)
	refOne := refParts(r.flat, refRows, 1)
	refAll := refParts(r.flat, refRows, cfg.clients)
	// refJob samples the reference beside a job: every worker scanning at
	// once, as the job's workers do.
	refJob := func() float64 {
		timings := make([]float64, refTimings)
		for i := range timings {
			timings[i] = timeRefScan(refQ, refAll, refPasses).Seconds()
		}
		return median(timings)
	}
	var setupS, indexMB, parX, seqX, seqMs, refSeqMs, refQPS, rowsPerS, aboveRowsPerS []float64
	var topSt, aboveSt []lemp.BulkStats
	var procTop [2]procSnapshot
	var lat []time.Duration
	var tunings, tuneHits, next int
	for rep := 0; rep < offlineReps; rep++ {
		r.ixFlat, r.ixSkew = nil, nil
		before := heapInUseMB()
		t0 := time.Now()
		var err error
		if r.ixFlat, err = lemp.New(r.flat, lemp.Options{}); err != nil {
			return nil, err
		}
		if r.ixSkew, err = lemp.New(r.skew, lemp.Options{Quantize: true}); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		// lemp.New indexes the catalogs in place; their bytes were on the
		// heap before.
		indexMB = append(indexMB, heapInUseMB()-before+float64((r.flat.N()+r.skew.N())*dim*8)/1e6)

		src, err := lemp.OpenQueryPanels(r.topKFile)
		if err != nil {
			return nil, err
		}
		ref := refJob()
		procTop[0] = readProc()
		id := r.rec.begin("bulk.run.topk", -1, rep, -1)
		top, err := r.ixFlat.BulkTopK(ctx, src, outTop, 10, opts)
		r.rec.end(id)
		procTop[1] = readProc()
		src.Close()
		if err != nil {
			return nil, fmt.Errorf("bulk top-k job: %w", err)
		}
		topSt = append(topSt, top)
		rowsPerS = append(rowsPerS, top.RowsPerSec())

		ref += refJob()
		id = r.rec.begin("bulk.run.above", -1, rep, -1)
		above, err := r.ixSkew.BulkAboveTheta(ctx, lemp.BulkQueries(r.aboveQ), outAbove, r.theta, opts)
		r.rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("bulk above-theta job: %w", err)
		}
		aboveSt = append(aboveSt, above)
		aboveRowsPerS = append(aboveRowsPerS, above.RowsPerSec())
		ref += refJob()
		parX = append(parX, (top.Wall+above.Wall).Seconds()/(ref/3))
		refQPS = append(refQPS, refPasses/(ref/3))

		// Single-row Retrieve calls on this repetition's flat index: one
		// caller, because an Index serves one retrieval call at a time. Each
		// repetition tunes afresh: an untimed first call of tuneRows rows
		// pays for it, so the fit rests on more than one query. Every call
		// is followed by one scan of the reference region.
		tc := lemp.NewTuningCache()
		retrieve := func(row, rows int) (*lemp.Result, error) {
			return r.ixFlat.Retrieve(ctx, r.topKQ.Slice(row, row+rows), lemp.TopK(10), lemp.WithTuningCache(tc))
		}
		if _, err := retrieve(0, min(tuneRows, nTop)); err != nil {
			return nil, err
		}
		for round := 0; round < retrieveRounds; round++ {
			var calls, scans []time.Duration
			deadline := time.Now().Add(cfg.measure(retrieveShare / (offlineReps * retrieveRounds)))
			for time.Now().Before(deadline) {
				t0 := time.Now()
				res, err := retrieve(next%nTop, 1)
				t1 := time.Now()
				next++
				r.res.Attempted++
				if err != nil {
					r.res.fail(1, []error{err})
					continue
				}
				scans = append(scans, timeRefScan(refQ, refOne, 1))
				calls = append(calls, t1.Sub(t0))
				tunings += res.Stats.Tunings
				tuneHits += res.Stats.TuneCacheHits
			}
			if len(calls) > 0 {
				ms, refMs := percentile(msOf(calls), 0.50), percentile(msOf(scans), 0.50)
				seqX = append(seqX, ms/refMs)
				seqMs = append(seqMs, ms)
				refSeqMs = append(refSeqMs, refMs)
				lat = append(lat, calls...)
			}
		}
	}
	r.res.e2e(mSetupS, setupS, 0)
	r.res.e2e(mIndexMB, indexMB, 0)
	r.res.e2e(mSeqX, seqX, len(lat))
	r.res.e2e(mParX, parX, offlineReps*(nTop+nAbove))
	r.res.layerSampled(mSeqMs, median(seqMs), len(lat))
	r.res.layerSampled(mRefSeqMs, median(refSeqMs), len(lat))
	r.res.layerSampled(mQPS, ratio(1e3, median(seqMs)), len(lat))
	r.res.layer(mRefQPS, median(refQPS))
	r.res.layerSampled(mRowsPerS, median(rowsPerS), nTop)
	r.res.layerSampled(mAboveRowsPer, median(aboveRowsPerS), nAbove)
	r.res.layerSampled(mP50, percentile(msOf(lat), 0.50), len(lat))
	r.res.Attempted += offlineReps * (nTop + nAbove)
	r.res.tails(msOf(lat))

	if cfg.trace {
		if err := r.layers(topSt, aboveSt, procTop, tunings, tuneHits); err != nil {
			return nil, err
		}
		kernelRows(cfg, r.res)
	}

	// The clock has stopped: check the last repetition's result files.
	if err := r.checkJob(outTop, r.topKQ, r.flat, true); err != nil {
		return nil, err
	}
	if err := r.checkJob(outAbove, r.aboveQ, r.skew, false); err != nil {
		return nil, err
	}

	r.res.finish(cfg.trace)
	if cfg.trace {
		if err := r.rec.writeJSONL(filepath.Join(cfg.outDir, "trace_"+wlBatchOffline+".jsonl")); err != nil {
			return nil, err
		}
	}
	for _, name := range []string{r.topKFile, outTop, outAbove} {
		os.Remove(name)
	}
	return r.res, nil
}

func writeMatrixFile(path string, m *lemp.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := lemp.WriteMatrix(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkJob compares bulkChecked evenly spaced rows of a bulk result file
// with internal/naive, entry for entry.
func (r *offlineRun) checkJob(path string, q, catalog *lemp.Matrix, topK bool) error {
	got, err := lemp.ReadBulkResults(path)
	if err != nil {
		return err
	}
	if len(got.Rows) != q.N() {
		r.res.fail(1, []error{fmt.Errorf("%s holds %d rows for %d queries", filepath.Base(path), len(got.Rows), q.N())})
		return nil
	}
	o := &oracle{probes: catalog}
	n := min(bulkChecked, q.N())
	bad := 0
	var errs []error
	for i := 0; i < n; i++ {
		row := i * q.N() / n
		qs := q.Slice(row, row+1)
		entries := make([]entry, len(got.Rows[row]))
		for j, e := range got.Rows[row] {
			entries[j] = entry{Probe: e.Probe, Value: e.Value}
		}
		var err error
		if topK {
			err = topKRowMatches(entries, o.topK(qs, 10)[0], func(p int) (float64, bool) {
				if p < 0 || p >= catalog.N() {
					return 0, false
				}
				return vecmath.Dot(q.Vec(row), catalog.Vec(p)), true
			})
		} else {
			err = aboveRowMatches(entries, o.above(qs, r.theta)[0], r.theta)
		}
		if err != nil {
			bad++
			if len(errs) < maxReportedErrs {
				errs = append(errs, fmt.Errorf("%s row %d: %w", filepath.Base(path), row, err))
			}
		}
	}
	r.res.fail(bad, errs)
	r.res.notef("%d rows of %s checked against internal/naive", n, filepath.Base(path))
	return nil
}

// layers fills the per-layer metrics of batch_offline: the bulk engine's
// own stats (median repetition), the panel reader timed alone, and
// Index.Retrieve timed per panel size.
func (r *offlineRun) layers(topSt, aboveSt []lemp.BulkStats, procTop [2]procSnapshot, tunings, tuneHits int) error {
	res, cfg := r.res, r.cfg
	byWall := func(sts []lemp.BulkStats) lemp.BulkStats {
		walls := make([]float64, len(sts))
		for i, st := range sts {
			walls[i] = st.Wall.Seconds()
		}
		med := median(walls)
		best := sts[0]
		for _, st := range sts {
			if math.Abs(st.Wall.Seconds()-med) < math.Abs(best.Wall.Seconds()-med) {
				best = st
			}
		}
		return best
	}
	top, above := byWall(topSt), byWall(aboveSt)
	par := float64(cfg.clients)
	res.layer("bulk.wall_s", top.Wall.Seconds())
	res.layer("bulk.tune_share", ratio(top.Core.TuneTime.Seconds(), par*top.Wall.Seconds()))
	res.layer("bulk.worker_busy_share", ratio((top.Core.TuneTime+top.Core.RetrievalTime).Seconds(), par*top.Wall.Seconds()))
	res.layer("bulk.panels", float64(top.Panels))
	res.layer("bulk.out_mb_per_s", ratio(float64(top.OutBytes)/1e6, top.Wall.Seconds()))
	res.notef("bulk above-theta job: wall %.3f s, tune share %.3f, busy share %.3f, %d panels",
		above.Wall.Seconds(), ratio(above.Core.TuneTime.Seconds(), par*above.Wall.Seconds()),
		ratio((above.Core.TuneTime+above.Core.RetrievalTime).Seconds(), par*above.Wall.Seconds()), above.Panels)

	res.layer("core.build_s", r.ixFlat.PrepTime().Seconds())
	res.layer("core.tune_s", top.Core.TuneTime.Seconds())
	res.layer("core.candidates_per_query", ratio(float64(top.Core.Candidates), float64(top.Core.Queries)))
	res.layer("core.block_verified_share", ratio(float64(top.Core.BlockVerified), float64(top.Core.BlockVerified+top.Core.ScalarVerified)))
	res.layer("core.pruned_pair_share", ratio(float64(above.Core.PrunedPairs), float64(above.Core.PrunedPairs+above.Core.ProcessedPairs)))
	res.layer("core.result_share", ratio(float64(above.Core.Results), float64(above.Core.Candidates)))
	res.layer("core.tune_cache_hit_share", ratio(float64(tuneHits), float64(tuneHits+tunings)))
	res.layer("quant.screened_share", ratio(float64(above.Core.QuantScreened), float64(above.Core.QuantScreened+above.Core.QuantSurvived)))
	res.layer("quant.sidecar_mb", float64(r.ixSkew.SidecarBytes())/1e6)

	rows := float64(top.Rows)
	res.layer("proc.cpu_ms_per_op", ratio(float64(procTop[1].cpu-procTop[0].cpu)/1e6, rows))
	res.layer("go.allocs_per_op", ratio(float64(procTop[1].mallocs-procTop[0].mallocs), rows))
	res.layer("go.alloc_kb_per_op", ratio(float64(procTop[1].bytes-procTop[0].bytes)/1e3, rows))
	res.layer("go.gc_pause_ms", float64(procTop[1].gcPause-procTop[0].gcPause)/1e6)
	res.layer("proc.rss_peak_mb", rssPeakMB())

	// matrix: every panel of the query file, read alone.
	src, err := lemp.OpenQueryPanels(r.topKFile)
	if err != nil {
		return err
	}
	defer src.Close()
	const panelRows = 256 // BulkOptions.PanelRows' default
	id := r.rec.begin("matrix.panel_read", -1, 0, -1)
	for lo := 0; lo < src.N(); lo += panelRows {
		if _, err := src.Panel(lo, min(panelRows, src.N()-lo)); err != nil {
			return err
		}
	}
	r.rec.end(id)
	res.layer("matrix.panel_read_mb_per_s", ratio(float64(src.N()*dim*8)/1e6, r.rec.spans[id].dur().Seconds()))

	// core: Index.Retrieve per panel size, tuning cached, so the per-row
	// time shows what a panel amortises.
	tc := lemp.NewTuningCache()
	ctx := context.Background()
	perRow := make(map[int]float64)
	for _, size := range []int{1, 16, 256} {
		if size > r.topKQ.N() {
			continue
		}
		calls := max(4, cfg.scaled(512, 16)/size)
		name := fmt.Sprintf("core.retrieve.p%d", size)
		for c := 0; c <= calls; c++ {
			lo := (c * size) % (r.topKQ.N() - size + 1)
			id := r.rec.begin(name, -1, c, -1)
			_, err := r.ixFlat.Retrieve(ctx, r.topKQ.Slice(lo, lo+size), lemp.TopK(10), lemp.WithTuningCache(tc))
			r.rec.end(id)
			if err != nil {
				return err
			}
			if c == 0 {
				r.rec.spans[id].Name += ".tuning" // the first call tunes; keep it out of the median
			}
		}
		perRow[size] = median(usOf(r.rec.durations(name))) / float64(size)
	}
	res.layer("core.retrieve_us", perRow[1])
	res.notef("Index.Retrieve per row by panel size (us): 1 row %.1f, 16 rows %.1f, 256 rows %.1f", perRow[1], perRow[16], perRow[256])
	return nil
}
