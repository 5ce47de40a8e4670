package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"lemp"
	"lemp/internal/server"
)

// The traced replay sends the workload's next requests, one client, to the
// successive entry points of the serving path in turn: of every six
// requests one is an untraced loopback POST (the base tracing overhead is
// measured against) and one goes to each of the five levels below. Every request of the
// stream is sent once, so the result cache (visible to the first two
// levels) never serves a request because another level sent it, and
// single-use update batches are never sent twice; taking turns, every level
// samples the same stretch of time, so a change of the machine's speed
// during the replay reaches all of them alike.
//
//	level 0  net.http      POST over loopback TCP
//	level 1  server.http   Handler().ServeHTTP with an in-memory writer
//	level 2  server.batch  Batcher.TopKAt / AboveThetaAt (own Batcher over srv.Sharded())
//	level 3  server.view   View.TopKCtx / AboveThetaCtx
//	level 4  server.shards Index.Retrieve per shard, then MergeTopK
//
// Spans are recorded here, around the calls; the program is not touched.
const (
	spanHTTP    = "net.http"
	spanHandler = "server.http"
	spanBatcher = "server.batch"
	spanView    = "server.view"
	spanShards  = "server.shards"
	spanShard   = "core.retrieve"
	spanMerge   = "retrieval.merge"
	spanUpdate  = "server.update.apply"
)

var levelSpans = [...]string{spanHTTP, spanHandler, spanBatcher, spanView, spanShards}

const (
	traceOps      = 512 // traced requests per level
	defaultMaxRow = 256 // lemp-serve's -batch-max default
)

// memWriter is the in-memory http.ResponseWriter of level 1.
type memWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (r *serveRun) tracedReplay(openP50ms float64) error {
	cfg := r.cfg
	n := cfg.scaled(traceOps, 32)
	rec := newRecorder()
	ctx := context.Background()
	sharded := r.srv.Sharded()
	handler := r.srv.Handler()
	batcher := server.NewBatcher(sharded, batchWindow, defaultMaxRow, server.BatchModeContinuous)
	c := &httpCaller{client: r.client, base: r.base}

	attempted, failed := 0, 0
	var errs []error
	note := func(o *op, err error) {
		attempted++
		if err != nil {
			failed++
			if len(errs) < maxReportedErrs {
				errs = append(errs, fmt.Errorf("traced %s: %w", o.kind, err))
			}
		}
	}

	// serve_mixed's exact check: the mirror holds every update batch applied
	// before this point; the loopback reads and every update of the replay
	// are kept in order and replayed against it once the clock has stopped.
	var mir *mirror
	if r.mixed {
		mir = newMirror(r.catalog)
		for i := 0; i < int(r.traffic.next.Load()) && i < len(r.traffic.ops); i++ {
			if o := &r.traffic.ops[i]; o.kind == opUpdate {
				if err := mir.apply(r.plan.batches[o.batch]); err != nil {
					return err
				}
			}
		}
	}
	var plain []time.Duration
	var kept []sample
	var reqBytes, respBytes, bodies float64
	const lanes = 1 + len(levelSpans)
	for req := 0; req < lanes*n; req++ {
		o, _ := r.traffic.take()
		if o == nil {
			break
		}
		// Level -1 is the untraced loopback lane. It and level 0 swap places
		// from one cycle to the next, so that neither is always the first
		// loopback request after four calls that bypassed the listener.
		level := req%lanes - 1
		if level <= 0 && (req/lanes)%2 == 1 {
			level = -1 - level
		}
		var err error
		switch {
		case level <= 0:
			var body []byte
			if level < 0 {
				t0 := time.Now()
				body, err = c.call(o)
				if o.kind == opTopK && !o.hot {
					plain = append(plain, time.Since(t0))
				}
			} else {
				id := rec.begin(spanHTTP, -1, req, -1)
				body, err = c.call(o)
				rec.end(id)
				r.tag(rec, id, o)
			}
			if err == nil {
				reqBytes += float64(len(o.body))
				respBytes += float64(len(body))
				bodies++
				if r.mixed && (level == 0 || o.kind == opUpdate) {
					kept = append(kept, sample{op: o, body: append([]byte(nil), body...)})
				}
			}
		case level == 1:
			hr, herr := http.NewRequest(http.MethodPost, o.kind.path(), bytes.NewReader(o.body))
			if herr != nil {
				return herr
			}
			w := &memWriter{hdr: make(http.Header), code: http.StatusOK}
			id := rec.begin(spanHandler, -1, req, -1)
			handler.ServeHTTP(w, hr)
			rec.end(id)
			r.tag(rec, id, o)
			if w.code != http.StatusOK {
				err = statusError{code: w.code, body: firstLine(w.buf.Bytes())}
			}
		case o.kind == opUpdate:
			// Below the HTTP handler updates go to Sharded.Update, the call
			// the handler makes.
			id := rec.begin(spanUpdate, -1, req, -1)
			_, err = sharded.Update(r.plan.batches[o.batch], mixedCompactFraction)
			rec.end(id)
		default:
			var id int
			id, err = r.replayBelowHTTP(ctx, rec, level, req, o, batcher)
			r.tag(rec, id, o)
		}
		note(o, err)
		if err == nil && o.kind == opUpdate && level > 0 {
			kept = append(kept, sample{op: o})
		}
	}

	r.res.Attempted += attempted
	r.res.fail(failed, errs)
	if r.mixed {
		bad, errs := r.checkAgainstMirror(mir, kept)
		r.res.fail(bad, errs)
		r.res.notef("%d sequential responses checked exactly against the update mirror", len(kept))
	}
	r.ledger(rec, plain, openP50ms, ratio(reqBytes, bodies), ratio(respBytes, bodies))
	return rec.writeJSONL(filepath.Join(cfg.outDir, "trace_"+r.name+".jsonl"))
}

// tag renames a replayed request's top-level span unless the request is of
// the class the ledger is computed on: a single-row top-k request the
// result cache cannot answer (levels 0 and 1 sit above the cache, the rest
// below it, and the subtraction needs like against like). The trace file
// keeps every request; the medians compare one class.
func (r *serveRun) tag(rec *recorder, id int, o *op) {
	switch {
	case o.hot:
		rec.spans[id].Name += ".hot"
	case o.kind != opTopK:
		rec.spans[id].Name += "." + o.kind.String()
	}
}

// replayBelowHTTP sends one read at level 2, 3 or 4.
func (r *serveRun) replayBelowHTTP(ctx context.Context, rec *recorder, level, req int, o *op, batcher *server.Batcher) (int, error) {
	sharded := r.srv.Sharded()
	lo, hi := int(o.row), int(o.row+o.rows)
	above := o.kind == opAbove
	switch level {
	case 2:
		data := r.queries.Data()[lo*dim : hi*dim]
		id := rec.begin(spanBatcher, -1, req, -1)
		view := sharded.CurrentView()
		var err error
		if above {
			_, _, err = batcher.AboveThetaAt(ctx, view, data, int(o.rows), r.theta)
		} else {
			_, _, err = batcher.TopKAt(ctx, view, data, int(o.rows), int(o.k))
		}
		rec.end(id)
		return id, err
	case 3:
		q := r.queries.Slice(lo, hi)
		view := sharded.CurrentView()
		id := rec.begin(spanView, -1, req, -1)
		var err error
		if above {
			_, _, err = view.AboveThetaCtx(ctx, q, r.theta)
		} else {
			_, _, err = view.TopKCtx(ctx, q, int(o.k))
		}
		rec.end(id)
		return id, err
	}
	q := r.queries.Slice(lo, hi)
	ixs := sharded.Indexes()
	mode := lemp.TopK(int(o.k))
	if above {
		mode = lemp.AboveTheta(r.theta)
	}
	id := rec.begin(spanShards, -1, req, -1)
	defer rec.end(id)
	parts := make([]lemp.TopKRows, len(ixs))
	rows := make([][]lemp.Entry, q.N())
	for s, ix := range ixs {
		sid := rec.begin(spanShard, id, req, s)
		res, err := ix.Retrieve(ctx, q, mode, lemp.WithTuningCache(sharded.TuningCache()))
		rec.end(sid)
		if err != nil {
			return id, err
		}
		parts[s] = res.TopK
		for _, e := range res.Entries {
			rows[e.Query] = append(rows[e.Query], e)
		}
	}
	mid := rec.begin(spanMerge, id, req, -1)
	if above {
		for _, row := range rows {
			lemp.SortEntries(row)
		}
	} else {
		lemp.MergeTopK(int(o.k), parts...)
	}
	rec.end(mid)
	return id, nil
}

// checkAgainstMirror replays level 0's requests against the mirror in
// order: updates are applied to it, reads are compared entry for entry with
// internal/naive over the mirror's live probe set at that point.
func (r *serveRun) checkAgainstMirror(mir *mirror, kept []sample) (bad int, errs []error) {
	var o *oracle
	for _, s := range kept {
		if s.op.kind == opUpdate {
			if err := mir.apply(r.plan.batches[s.op.batch]); err != nil {
				return bad + 1, append(errs, err)
			}
			o = nil
			continue
		}
		if o == nil {
			var err error
			if o, err = mir.oracle(); err != nil {
				return bad + 1, append(errs, err)
			}
		}
		dot := func(row, probe int) (float64, bool) { return mir.dot(r.queries.Vec(row), probe) }
		if err := o.checkRead(s.op, s.body, r.queries, r.theta, dot); err != nil {
			bad++
			if len(errs) < maxReportedErrs {
				errs = append(errs, fmt.Errorf("sequential %s of query row %d: %w", s.op.kind, s.op.row, err))
			}
		}
	}
	return bad, errs
}

// ledger turns the replay's spans into the per-layer metrics: each level's
// median over the ledger's request class (see tag), the differences between
// successive levels, and inside level 4 the slowest shard and the merge.
func (r *serveRun) ledger(rec *recorder, plain []time.Duration, openP50ms, reqBytes, respBytes float64) {
	res := r.res
	var med [len(levelSpans)]float64
	for i, name := range levelSpans[:4] {
		med[i] = median(usOf(rec.durations(name)))
	}

	// Level 4: the fan-out runs the shards in parallel, so the slowest shard
	// sets the request's time; here they ran one after another.
	type reqShards struct {
		slowest, sum, merge time.Duration
		shards              int
	}
	byReq := make(map[int]*reqShards)
	parents := make(map[int]bool)
	for _, s := range rec.spans {
		if s.Name == spanShards {
			parents[s.ID] = true
		}
	}
	for _, s := range rec.spans {
		if !parents[s.Parent] {
			continue
		}
		rs := byReq[s.Req]
		if rs == nil {
			rs = &reqShards{}
			byReq[s.Req] = rs
		}
		switch s.Name {
		case spanShard:
			rs.slowest = max(rs.slowest, s.dur())
			rs.sum += s.dur()
			rs.shards++
		case spanMerge:
			rs.merge = s.dur()
		}
	}
	var slowest, merge, inner []time.Duration
	var skew float64
	for _, rs := range byReq {
		slowest = append(slowest, rs.slowest)
		merge = append(merge, rs.merge)
		inner = append(inner, rs.slowest+rs.merge)
		skew += ratio(float64(rs.slowest), float64(rs.sum)/float64(rs.shards))
	}
	med[4] = median(usOf(inner))
	self := levelSelf(med[:])
	// What the benchmark's own loop adds inside level 4: the part of the
	// level's span that neither a shard's Retrieve nor the merge covers.
	spanSelf := selfTimes(rec.spans)
	var wrapper []time.Duration
	for id := range parents {
		wrapper = append(wrapper, spanSelf[id])
	}

	res.layer("net.tcp.self_us", self[0])
	res.layer("server.http.self_us", self[1])
	res.layer("server.batcher.self_us", self[2])
	res.layer("server.sharded.fanout_self_us", self[3])
	res.layer("core.retrieve_us", median(usOf(slowest)))
	res.layer("retrieval.mergetopk_us", median(usOf(merge)))
	res.layer("server.sharded.shard_skew", ratio(skew, float64(len(byReq))))
	res.layer("server.update.apply_us", median(usOf(rec.durations(spanUpdate))))
	res.layer("server.http.req_bytes", reqBytes)
	res.layer("server.http.resp_bytes", respBytes)
	res.layer("trace.overhead_share", ratio(med[0]-median(usOf(plain)), median(usOf(plain))))
	res.layer("trace.queueing_us", 1000*openP50ms-med[0])
	res.notef("traced medians (us, uncached single-row top-k): http %.1f, handler %.1f, batcher %.1f, view %.1f, slowest shard + merge %.1f", med[0], med[1], med[2], med[3], med[4])
	res.notef("the replay's own loop around the shards adds %.1f us (median self time of the %s spans)", median(usOf(wrapper)), spanShards)
	res.notef("slowest shard's core.retrieve_us is %.1f%% of the loopback-level median", 100*ratio(median(usOf(slowest)), med[0]))
}
