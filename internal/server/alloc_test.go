package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"

	"lemp"
	"lemp/internal/data"
	"lemp/internal/obs"
)

// TestServerSteadyStateAllocs asserts the serving hot path is allocation-
// free per verified candidate: after warm-up (lazy sidecars built, scratch
// pools populated), repeated scans must
// not allocate in proportion to the candidates they verify. Fixed per-call
// overhead — result rows, query normalization — is legal; anything scaling
// with candidate count is a regression back to per-candidate scratch
// allocation. The per-call count is pinned too: 112 on two shards, 45 once
// the server held one index.
func TestServerSteadyStateAllocs(t *testing.T) {
	q, p := data.Smoke.Generate()
	sh, err := shardedOver(p, lemp.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := q.Head(16)
	const k = 10
	view := sh.CurrentView()
	// Warm up: builds the lazy sidecars and the per-index scratch pools.
	if _, _, err := view.TopKCtx(context.Background(), batch, k); err != nil {
		t.Fatal(err)
	}

	// Per-run work, measured on its own call.
	before := sh.CumulativeStats()
	if _, _, err := view.TopKCtx(context.Background(), batch, k); err != nil {
		t.Fatal(err)
	}
	after := sh.CumulativeStats()
	candidates := after.Candidates - before.Candidates
	if candidates == 0 {
		t.Fatal("steady-state call verified no candidates; fixture too small")
	}
	if after.BlockVerified == before.BlockVerified {
		t.Fatal("steady-state call verified no candidates through the blocked kernels")
	}

	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := view.TopKCtx(context.Background(), batch, k); err != nil {
			t.Fatal(err)
		}
	})
	perCandidate := allocs / float64(candidates)
	t.Logf("%.1f allocs/call over %d verified candidates = %.4f allocs/candidate",
		allocs, candidates, perCandidate)
	// Zero allocations per verified candidate, with headroom for the fixed
	// per-call overhead (rows, goroutines) that this bound spreads across the
	// candidate count.
	if perCandidate > 0.10 {
		t.Fatalf("%.4f allocations per verified candidate (%.1f per call / %d candidates); the hot path is allocating per candidate",
			perCandidate, allocs, candidates)
	}
	const ceiling = 45
	if !raceEnabled && allocs > ceiling {
		t.Fatalf("%.1f allocations per call, ceiling %v", allocs, ceiling)
	}
}

// TestServerQuantSteadyStateAllocs is TestServerSteadyStateAllocs with the
// int8 screening sidecar active: quantizing the query (cached in scratch)
// and screening every candidate must stay off the per-candidate allocation
// budget. The build quantizes nothing; the warm-up call builds the sidecars
// of the buckets it screens.
func TestServerQuantSteadyStateAllocs(t *testing.T) {
	q, p := data.Smoke.Generate()
	sh, err := shardedOver(p, lemp.Options{Parallelism: 1, Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	if sh.SidecarBytes() != 0 {
		t.Fatalf("Quantize build holds %d sidecar bytes before any call", sh.SidecarBytes())
	}
	batch := q.Head(16)
	const k = 10
	view := sh.CurrentView()
	if _, _, err := view.TopKCtx(context.Background(), batch, k); err != nil { // warm-up
		t.Fatal(err)
	}
	if sh.SidecarBytes() == 0 {
		t.Fatal("the warm-up call built no sidecar")
	}

	before := sh.CumulativeStats()
	if _, _, err := view.TopKCtx(context.Background(), batch, k); err != nil {
		t.Fatal(err)
	}
	after := sh.CumulativeStats()
	screened := after.QuantScreened - before.QuantScreened
	survived := after.QuantSurvived - before.QuantSurvived
	if screened+survived == 0 {
		t.Fatal("steady-state call screened no candidates; sidecar inactive")
	}

	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := view.TopKCtx(context.Background(), batch, k); err != nil {
			t.Fatal(err)
		}
	})
	perCandidate := allocs / float64(screened+survived)
	t.Logf("quant path: %.1f allocs/call over %d screened candidates (%d discarded) = %.4f allocs/candidate",
		allocs, screened+survived, screened, perCandidate)
	if perCandidate > 0.10 {
		t.Fatalf("%.4f allocations per screened candidate (%.1f per call); quantized screening is allocating per candidate",
			perCandidate, allocs)
	}
}

// TestServerObservedSteadyStateAllocs is the same bound with the full
// observability envelope engaged: a wired Server (metric hooks on the
// index), an active trace in the context (so tune and scan spans record),
// and a tracer Finish per call. Metrics observation and span recording must
// stay off the per-candidate cost; only the fixed per-call envelope (context
// values, root span) may allocate.
func TestServerObservedSteadyStateAllocs(t *testing.T) {
	q, p := data.Smoke.Generate()
	srv, err := New(p, Config{
		Options: lemp.Options{Parallelism: 1},
		// Rate 0: traces record fully but are never retained, which is the
		// steady state for the overwhelming majority of production requests.
		TraceSampleRate: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := q.Head(16)
	const k = 10
	sh := srv.Sharded()
	view := sh.CurrentView()
	tracer := srv.Tracer()

	observedTopK := func() {
		tr := tracer.StartTrace()
		root := tr.Start("topk", obs.NoSpan)
		ctx := obs.ContextWithSpan(context.Background(), tr, root)
		if _, _, err := view.TopKCtx(ctx, batch, k); err != nil {
			t.Fatal(err)
		}
		tr.End(root)
		tracer.Finish(tr, obs.TraceMeta{Kind: "topk", Rows: batch.N()})
	}

	observedTopK() // warm-up: sidecars, scratch pools, trace pool

	before := sh.CumulativeStats()
	observedTopK()
	after := sh.CumulativeStats()
	candidates := after.Candidates - before.Candidates
	if candidates == 0 {
		t.Fatal("steady-state call verified no candidates; fixture too small")
	}

	allocs := testing.AllocsPerRun(10, observedTopK)
	perCandidate := allocs / float64(candidates)
	t.Logf("observed path: %.1f allocs/call over %d verified candidates = %.4f allocs/candidate",
		allocs, candidates, perCandidate)
	if perCandidate > 0.10 {
		t.Fatalf("%.4f allocations per verified candidate with observability on (%.1f per call / %d candidates); metrics or tracing are allocating per candidate",
			perCandidate, allocs, candidates)
	}
}

// TestReadAfterUpdateAllocs holds what an update leaves for the reads behind
// it: the derived index versions share their lineage's scratch pool, so the
// first read of the new version allocates like any other, and a delta bucket
// the batch did not retire arrives unchanged, with the lazy sidecar reads
// built for it where the int8 kernels are assembly. (With a pool per index
// the first read allocated ≈ 30× a steady one, 145 KB against 4.5 KB on a
// benchmark shard.)
func TestReadAfterUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ratio: see raceEnabled")
	}
	q, p := data.Smoke.Generate()
	sh, err := shardedOver(p, lemp.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	row := q.Head(1)
	read := func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := sh.CurrentView().TopKCtx(context.Background(), row, k); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	adds := func(n int) []lemp.ProbeUpdate {
		ups := make([]lemp.ProbeUpdate, n)
		for i := range ups {
			ups[i] = lemp.ProbeUpdate{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: q.Vec(100 + i%100)}
		}
		return ups
	}
	update := func(ups []lemp.ProbeUpdate) {
		if _, err := sh.Update(ups, -1); err != nil {
			t.Fatal(err)
		}
	}
	deltaBuckets := func() (out []lemp.BucketInfo) {
		for _, ix := range sh.Indexes() {
			for _, b := range ix.Buckets() {
				if b.Delta {
					out = append(out, b)
				}
			}
		}
		return out
	}

	// A first batch that forms delta buckets, then reads: lazy sidecars,
	// scratch pools.
	update(adds(160))
	var steady, afterUpdate []float64
	for i := 0; i < 8; i++ {
		steady = append(steady, read())
	}
	old := deltaBuckets()
	if len(old) == 0 {
		t.Fatal("the first batch formed no delta bucket")
	}
	for i := 0; i < 5; i++ {
		update(append(adds(4), lemp.ProbeUpdate{Op: lemp.OpRemove, ID: int32(10 * i)}, lemp.ProbeUpdate{Op: lemp.OpUpdate, ID: int32(10*i + 1), Vec: q.Vec(i)}))
		afterUpdate = append(afterUpdate, read())
	}
	now := deltaBuckets()
	for _, b := range old { // small batches merge among themselves, never into the big first run
		// A sidecar a later read built is the only change allowed.
		kept := slices.ContainsFunc(now, func(c lemp.BucketInfo) bool {
			c.Sidecar = c.Sidecar && b.Sidecar
			return c == b
		})
		if !kept {
			t.Errorf("delta bucket %+v did not survive the batches unchanged: %+v", b, now)
		}
	}
	slices.Sort(steady)
	slices.Sort(afterUpdate)
	s, a := steady[len(steady)/2], afterUpdate[len(afterUpdate)/2]
	t.Logf("median bytes per one-row read: steady %.0f, first after an update %.0f", s, a)
	if a > 2*s {
		t.Fatalf("the first read after an update allocates %.0f bytes, a steady one %.0f: the new version started cold", a, s)
	}
}

// TestHandlerSteadyStateAllocs is the fourth reading, of the whole request:
// a one-row /v1/topk through Handler() — decode, admission, batcher,
// retrieval, encode, the observability envelope and this test's own recorder.
// The ceiling is the count measured on this fixture once the hand-written
// codec replaced encoding/json (its decoder state, the [][]float64 rows and
// their flat copy, the [][]resultEntry response copy and the marshal
// buffer), a lone request stopped taking the batch, merged context, waiter,
// channel and dispatch goroutine, the last shard stopped taking a
// goroutine, and the fan-out and instrument wrapper each gathered their
// per-call state into one allocation: 101 → 70. A span context then took
// one allocation instead of two (68), the batch.retrieve span's context
// left with request coalescing (67), and the shard fan-out and merge left
// with the server's shards: 44.
func TestHandlerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation ceiling: see raceEnabled")
	}
	q, p := data.Smoke.Generate()
	body, _ := json.Marshal(topKRequest{Queries: [][]float64{q.Vec(0)}, K: 10})
	t.Run("no coalescing", func(t *testing.T) {
		srv, err := New(p, Config{Options: lemp.Options{Parallelism: 1}})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		post := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/topk", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
		post() // warm-up: sidecars, scratch, codec and trace pools
		const ceiling = 44
		if allocs := testing.AllocsPerRun(20, post); allocs > ceiling {
			t.Fatalf("%.1f allocations per one-row /v1/topk, ceiling %v", allocs, ceiling)
		} else {
			t.Logf("%.1f allocations per one-row /v1/topk (ceiling %v)", allocs, ceiling)
		}
	})
}

// TestUpdateHandlerSteadyStateAllocs reads a benchmark-shaped /v1/update
// batch — eight rewrites of 16 coordinates — through Handler() the way
// TestHandlerSteadyStateAllocs reads a query. The body is decoded into the
// pooled codec buffer and the response appended there too, so what is left
// is the update's own plan and derived index version. The ceiling is the
// count measured on this fixture once the codec replaced encoding/json (its
// decoder state, eight id pointers, eight vectors, the op slice, the
// ProbeUpdate copy and the marshalled response): 145 → 74, and 73 once a
// span context took one allocation instead of two; it has since measured
// 71, and 65 once the server's own plan and shard routing left with its
// shards.
func TestUpdateHandlerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation ceiling: see raceEnabled")
	}
	_, p := data.Smoke.Generate()
	ops := make([]map[string]any, 8)
	for i := range ops {
		ops[i] = map[string]any{"op": "update", "id": i, "vector": p.Vec(100 + i)}
	}
	body, _ := json.Marshal(map[string]any{"updates": ops})
	srv, err := New(p, Config{Options: lemp.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	post := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/update", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	post() // warm-up: codec and trace pools, the first delta segment
	const ceiling = 65
	if allocs := testing.AllocsPerRun(20, post); allocs > ceiling {
		t.Fatalf("%.1f allocations per eight-op /v1/update, ceiling %v", allocs, ceiling)
	} else {
		t.Logf("%.1f allocations per eight-op /v1/update (ceiling %v)", allocs, ceiling)
	}
}
