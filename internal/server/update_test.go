package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lemp"
	"lemp/internal/vecmath"
)

// epochProbe builds an n-probe matrix whose vectors live in the positive
// octant with unit length, so every inner product with a positive-octant
// query is bounded away from zero — the scale factor applied by the test
// updater is then recoverable from any result value.
func epochProbe(rng *rand.Rand, r, n int) *lemp.Matrix {
	p := lemp.NewMatrix(r, n)
	for i := 0; i < n; i++ {
		v := p.Vec(i)
		var norm2 float64
		for f := range v {
			v[f] = 0.5 + 0.5*rng.Float64()
			norm2 += v[f] * v[f]
		}
		norm := math.Sqrt(norm2)
		for f := range v {
			v[f] /= norm
		}
	}
	return p
}

// postBody posts raw JSON and returns the status code and decoded body.
func postBody(t testing.TB, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// getHealthz fetches /healthz.
func getHealthz(t testing.TB, url string) (epoch uint64, probes int) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Epoch  uint64 `json:"epoch"`
		Probes int    `json:"probes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Epoch, h.Probes
}

// TestUpdateEndToEnd: an applied update batch must change query results to
// exactly those of a fresh index over the mutated probe set, advance the
// epoch, and report assigned ids.
func TestUpdateEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const r, n = 6, 60
	p := epochProbe(rng, r, n)
	srv, err := New(p, Config{Shards: 3, Options: lemp.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	addVec := make([]float64, r)
	addVec[0] = 3 // longer than every existing probe: must become top-1
	upVec := make([]float64, r)
	upVec[1] = 2.5
	body, _ := json.Marshal(map[string]any{"updates": []map[string]any{
		{"op": "add", "vector": addVec},
		{"op": "remove", "id": 5},
		{"op": "update", "id": 7, "vector": upVec},
	}})
	status, out := postBody(t, ts.URL+"/v1/update", string(body))
	if status != http.StatusOK {
		t.Fatalf("update status %d: %v", status, out)
	}
	if out["epoch"].(float64) != 1 {
		t.Fatalf("epoch %v, want 1", out["epoch"])
	}
	if out["live_probes"].(float64) != n {
		t.Fatalf("live_probes %v, want %d", out["live_probes"], n)
	}
	ids := out["ids"].([]any)
	if ids[0].(float64) != n {
		t.Fatalf("assigned id %v, want %d", ids[0], n)
	}

	// Reference: fresh index over the mutated set, ids preserved.
	mut := lemp.NewMatrix(r, n)
	mutIDs := make([]int32, 0, n)
	col := 0
	for i := 0; i < n; i++ {
		if i == 5 {
			continue
		}
		src := p.Vec(i)
		if i == 7 {
			src = upVec
		}
		copy(mut.Vec(col), src)
		mutIDs = append(mutIDs, int32(i))
		col++
	}
	copy(mut.Vec(col), addVec)
	mutIDs = append(mutIDs, int32(n))
	ref, err := lemp.NewWithIDs(mut, mutIDs, lemp.Options{})
	if err != nil {
		t.Fatal(err)
	}

	q := epochProbe(rng, r, 3)
	var resp struct {
		Results [][]struct {
			Probe int     `json:"probe"`
			Value float64 `json:"value"`
		} `json:"results"`
	}
	queries := [][]float64{q.Vec(0), q.Vec(1), q.Vec(2)}
	buf, _ := json.Marshal(map[string]any{"queries": queries, "k": 4})
	status, _ = postBody(t, ts.URL+"/v1/topk", string(buf))
	if status != http.StatusOK {
		t.Fatalf("topk status %d", status)
	}
	httpResp, err := http.Post(ts.URL+"/v1/topk", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	want := directTopK(t, ref, q, 4)
	for i := range want {
		if len(resp.Results[i]) != len(want[i]) {
			t.Fatalf("query %d: %d entries, want %d", i, len(resp.Results[i]), len(want[i]))
		}
		for j := range want[i] {
			if resp.Results[i][j].Probe != want[i][j].Probe || resp.Results[i][j].Value != want[i][j].Value {
				t.Fatalf("query %d entry %d: got %+v, want %+v", i, j, resp.Results[i][j], want[i][j])
			}
		}
	}
	if resp.Results[0][0].Probe != n {
		t.Fatalf("added probe %d not top-1 (got probe %d)", n, resp.Results[0][0].Probe)
	}
}

// TestUpdateHandlerRejects: every malformed batch must 400 and leave the
// probe set, the epoch, and query results untouched.
func TestUpdateHandlerRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const r, n = 4, 40
	p := epochProbe(rng, r, n)
	srv, err := New(p, Config{Shards: 2, MaxUpdateOps: 4, Options: lemp.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	qv, _ := json.Marshal([][]float64{p.Vec(0)})
	refBody := fmt.Sprintf(`{"queries": %s, "k": 3}`, qv)
	_, refBefore := postBody(t, ts.URL+"/v1/topk", refBody)

	epoch0, probes0 := getHealthz(t, ts.URL)
	bad := []struct {
		name, body string
	}{
		{"empty batch", `{"updates": []}`},
		{"no body field", `{}`},
		{"NaN coordinate", `{"updates": [{"op": "add", "vector": [NaN, 1, 1, 1]}]}`},
		{"Infinity coordinate", `{"updates": [{"op": "add", "vector": [Infinity, 1, 1, 1]}]}`},
		{"overflow coordinate", `{"updates": [{"op": "add", "vector": [1e999, 1, 1, 1]}]}`},
		{"overflowing length", `{"updates": [{"op": "add", "vector": [1e200, 1, 1, 1]}]}`},
		{"dimension short", `{"updates": [{"op": "add", "vector": [1, 2]}]}`},
		{"dimension long", `{"updates": [{"op": "add", "vector": [1, 2, 3, 4, 5]}]}`},
		{"duplicate live id", `{"updates": [{"op": "add", "id": 3, "vector": [1, 1, 1, 1]}]}`},
		{"duplicate in batch", `{"updates": [{"op": "add", "id": 77, "vector": [1, 1, 1, 1]}, {"op": "add", "id": 77, "vector": [1, 1, 1, 1]}]}`},
		{"unknown remove", `{"updates": [{"op": "remove", "id": 999}]}`},
		{"unknown update", `{"updates": [{"op": "update", "id": 999, "vector": [1, 1, 1, 1]}]}`},
		{"negative id", `{"updates": [{"op": "add", "id": -2, "vector": [1, 1, 1, 1]}]}`},
		{"missing id", `{"updates": [{"op": "remove"}]}`},
		{"unknown op", `{"updates": [{"op": "upsert", "id": 1, "vector": [1, 1, 1, 1]}]}`},
		{"remove with vector", `{"updates": [{"op": "remove", "id": 1, "vector": [1, 1, 1, 1]}]}`},
		{"oversized batch", `{"updates": [` + strings.Repeat(`{"op": "remove", "id": 1},`, 4) + `{"op": "remove", "id": 2}]}`},
		{"atomicity: valid then invalid", `{"updates": [{"op": "remove", "id": 1}, {"op": "remove", "id": 999}]}`},
		{"malformed JSON", `{"updates": [`},
	}
	for _, tc := range bad {
		status, out := postBody(t, ts.URL+"/v1/update", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%v)", tc.name, status, out)
		}
		epoch, probes := getHealthz(t, ts.URL)
		if epoch != epoch0 || probes != probes0 {
			t.Fatalf("%s: rejected batch mutated state (epoch %d→%d, probes %d→%d)",
				tc.name, epoch0, epoch, probes0, probes)
		}
	}
	_, refAfter := postBody(t, ts.URL+"/v1/topk", refBody)
	if fmt.Sprint(refBefore) != fmt.Sprint(refAfter) {
		t.Fatalf("query results changed after rejected batches:\nbefore %v\nafter  %v", refBefore, refAfter)
	}
}

// TestUpdateValidatesBeforeDeriving: Sharded.Update checks every op's vector
// while it plans the batch, before placement reads it and before any shard
// derives or compacts anything — so a bad vector is an error under every
// placement, is reported under its index in the batch, and costs nothing.
func TestUpdateValidatesBeforeDeriving(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const r, n = 4, 40
	p := epochProbe(rng, r, n)
	vec := func() []float64 { return append([]float64(nil), p.Vec(rng.Intn(n))...) }

	t.Run("cluster placement meets a short vector", func(t *testing.T) {
		sh, err := NewShardedPlaced(p, nil, 2, lemp.Options{Parallelism: 1}, PlaceCluster)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sh.Update([]lemp.ProbeUpdate{{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: []float64{1, 2}}}, -1); err == nil {
			t.Fatal("a two-coordinate add was accepted by a four-dimensional catalog")
		}
	})

	t.Run("a rejected batch counts no compaction and names its own op", func(t *testing.T) {
		sh, err := NewShardedPlaced(p, nil, 2, lemp.Options{Parallelism: 1}, PlaceRange)
		if err != nil {
			t.Fatal(err)
		}
		ids := sh.Indexes()[1].LiveIDs()
		// Op 0 alone would push shard 0 past the threshold and compact it;
		// op 1 is shard 1's first op and no index accepts it.
		ups := []lemp.ProbeUpdate{
			{Op: lemp.OpUpdate, ID: sh.Indexes()[0].LiveIDs()[0], Vec: vec()},
			{Op: lemp.OpUpdate, ID: ids[0], Vec: []float64{math.NaN(), 0, 0, 0}},
		}
		_, err = sh.Update(ups, 0)
		if err == nil {
			t.Fatal("a NaN coordinate was accepted")
		}
		if !strings.Contains(err.Error(), "update 1:") {
			t.Errorf("error %q does not name op 1 of the batch", err)
		}
		if c, e := sh.Compactions(), sh.Epoch(); c != 0 || e != 0 {
			t.Errorf("rejected batch left %d compactions at epoch %d, want 0 at 0", c, e)
		}
		if _, err := sh.Update(ups[:1], 0); err != nil {
			t.Fatal(err)
		}
		if c, e := sh.Compactions(), sh.Epoch(); c != 1 || e != 1 {
			t.Errorf("the valid half alone: %d compactions at epoch %d, want 1 at 1", c, e)
		}
	})
}

// FuzzUpdateHandler throws arbitrary JSON at /v1/update: the handler must
// never panic, and any non-200 response must leave the server's epoch and
// probe count untouched.
func FuzzUpdateHandler(f *testing.F) {
	f.Add(`{"updates": [{"op": "add", "vector": [1, 1, 1, 1]}]}`)
	f.Add(`{"updates": [{"op": "remove", "id": 0}]}`)
	f.Add(`{"updates": [{"op": "update", "id": 1, "vector": [0.5, 0, 0, 0]}]}`)
	f.Add(`{"updates": [{"op": "add", "vector": [NaN, 1, 1, 1]}]}`)
	f.Add(`{"updates": [{"op": "add", "id": -1, "vector": [1, 1, 1, 1]}]}`)
	f.Add(`{"updates": [{"op": "add", "id": 1000000, "vector": [1e308, 1e308, 1, 1]}]}`)
	f.Add(`{"updates": [{"op": "remove", "id": 4}, {"op": "remove", "id": 4}]}`)
	f.Add(`{"updates": null}`)
	f.Add(`[1, 2, 3]`)
	f.Add(`{"updates": [{"op": "add", "vector": []}]}`)
	f.Add(`{"updates":[{"op":"add","id":20,"vector":[1,2,3,4]},{"op":"update","id":2,"vector":[0.5,0,0,1e-7]},{"op":"remove","id":3}]}`)
	f.Add(`{"updates": [{"OP": "remove", "Id": 1}]}`)
	f.Add(`{"updates": [{"op": "\u0061dd", "vector": [1, 1, 1, 1]}]}`)
	f.Add(`{"updates": [{"op": "remove", "id": 1, "id": null}]}`)
	f.Add(`{"updates": [{"op": "add", "vector": [1, 1], "vector": [1, 1, 1, 1]}]}`)
	f.Add(`{"updates": [{"op": "remove", "id": 1, "vector": null}]}`)
	f.Add(`{"updates": [{"op": "remove", "id": 1, "extra": true}]}`)
	f.Add(`{"updates": [{"op": "remove", "id": 1.0}]}`)
	f.Add(`{"updates": [{"op": "remove", "id": 1e2}]}`)
	f.Add(`{"updates": [{"op": "add", "id": 2147483648, "vector": [1, 1, 1, 1]}]}`)
	f.Add(`{"updates": [{"op": "remove", "id": -0}]}`)
	f.Add(`{"updates": [{"op": "remove", "id": 1}]}garbage`)

	rng := rand.New(rand.NewSource(17))
	const r, n = 4, 16
	probe := epochProbe(rng, r, n)

	f.Fuzz(func(t *testing.T, body string) {
		srv, err := New(probe.Clone(), Config{Shards: 2, MaxUpdateOps: 64, Options: lemp.Options{Parallelism: 1}})
		if err != nil {
			t.Fatal(err)
		}
		before := srv.sharded.CurrentView()
		req := httptest.NewRequest("POST", "/v1/update", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		after := srv.sharded.CurrentView()
		switch rec.Code {
		case http.StatusOK:
			if after.Epoch() != before.Epoch()+1 {
				t.Fatalf("200 response but epoch %d → %d", before.Epoch(), after.Epoch())
			}
		default:
			if after.Epoch() != before.Epoch() || after.N() != before.N() {
				t.Fatalf("status %d mutated state (epoch %d→%d, probes %d→%d)",
					rec.Code, before.Epoch(), after.Epoch(), before.N(), after.N())
			}
		}
	})
}

// TestPooledUpdateVectorsOutliveReuse applies a batch whose vectors were
// decoded into the codec's pooled storage, then decodes a second body into
// the same storage: the applied probe and a query's answer must not change,
// since an applied vector is copied out of the request.
func TestPooledUpdateVectorsOutliveReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const r, n = 4, 32
	srv, err := New(epochProbe(rng, r, n), Config{Shards: 2, Options: lemp.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sh := srv.Sharded()
	// The answers of the basis queries hold every probe's coordinates; the
	// random query's is the one a client would see.
	q := lemp.NewMatrix(r, r+1)
	for f := 0; f < r; f++ {
		q.Vec(f)[f] = 1
	}
	copy(q.Vec(r), epochProbe(rng, r, 1).Vec(0))
	answer := func() lemp.TopKRows {
		rows, _, err := sh.CurrentView().TopKCtx(context.Background(), q, n+1)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}

	added := []float64{3, 0.5, 0.25, 0.125}
	var u updateBatch
	if err := u.decode([]byte(`{"updates":[{"op":"add","id":100,"vector":[3,0.5,0.25,0.125]},{"op":"update","id":1,"vector":[0.25,0.5,0.75,1]}]}`)); err != nil {
		t.Fatal(err)
	}
	pooled := &u.data[0]
	ups, err := u.validate(0)
	if err != nil {
		t.Fatal(err)
	}
	if &ups[0].Vec[0] != pooled {
		t.Fatal("the fast path did not decode the vectors into the pooled storage")
	}
	if _, err := sh.Update(ups, -1); err != nil {
		t.Fatal(err)
	}
	before := answer()
	for f, row := range before[:r] {
		i := slices.IndexFunc(row, func(e lemp.Entry) bool { return e.Probe == 100 })
		if i < 0 || math.Abs(row[i].Value-added[f]) > 1e-12 {
			t.Fatalf("coordinate %d of the added probe: row %v", f, row)
		}
	}

	if err := u.decode([]byte(`{"updates":[{"op":"update","id":100,"vector":[-9,-9,-9,-9]},{"op":"add","vector":[-7,-7,-7,-7]}]}`)); err != nil {
		t.Fatal(err)
	}
	if &u.data[0] != pooled || u.data[0] != -9 {
		t.Fatal("the second body did not reuse the pooled storage")
	}
	if after := answer(); !reflect.DeepEqual(after, before) {
		t.Fatalf("answers changed when the pooled storage was reused:\nbefore %v\nafter  %v", before, after)
	}
}

// TestEpochConsistencyUnderRace is the update/query race test: an updater
// rescales every probe per batch while readers hammer /v1/topk and
// /v1/above through the batcher. Every probe's value under a
// query recovers the scale factor (probes and queries live in the positive
// octant), so a response mixing two epochs is detectable: all entries of a
// response must imply the same scale. Run under -race in CI.
func TestEpochConsistencyUnderRace(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const r, n, epochs, readers = 3, 24, 25, 4
	base := epochProbe(rng, r, n)
	srv, err := New(base.Clone(), Config{
		Shards:      3,
		Options:     lemp.Options{Parallelism: 1},
		BatchWindow: 200 * time.Microsecond,
		BatchMax:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A small fixed query pool, so the same rows are asked at every epoch.
	queries := make([][]float64, 6)
	qm := epochProbe(rng, r, len(queries))
	for i := range queries {
		queries[i] = qm.Vec(i)
	}
	dots := make([][]float64, len(queries)) // dots[qi][probe] at scale 1
	for qi, qv := range queries {
		dots[qi] = make([]float64, n)
		for i := 0; i < n; i++ {
			var d float64
			for f := 0; f < r; f++ {
				d += qv[f] * base.Vec(i)[f]
			}
			dots[qi][i] = d
		}
	}

	// checkRows infers the scale from every entry of a response and fails
	// on any disagreement — a mixed-epoch response.
	checkRows := func(tag string, qis []int, rows [][]struct {
		Probe int     `json:"probe"`
		Value float64 `json:"value"`
	}) error {
		scale := -1.0
		for ri, row := range rows {
			if len(row) != n {
				return fmt.Errorf("%s: row %d has %d entries, want %d", tag, ri, len(row), n)
			}
			for _, e := range row {
				if e.Probe < 0 || e.Probe >= n {
					return fmt.Errorf("%s: probe %d out of range", tag, e.Probe)
				}
				s := e.Value / dots[qis[ri]][e.Probe]
				if scale < 0 {
					scale = s
				} else if math.Abs(s-scale) > 1e-9*scale {
					return fmt.Errorf("%s: mixed epochs in one response: scales %v and %v", tag, scale, s)
				}
			}
		}
		round := math.Round(scale)
		if round < 1 || round > epochs+1 || math.Abs(scale-round) > 1e-9*round {
			return fmt.Errorf("%s: implied scale %v is not a whole epoch", tag, scale)
		}
		return nil
	}

	stop := make(chan struct{})
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lrng := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				qis := []int{lrng.Intn(len(queries)), lrng.Intn(len(queries))}
				body := map[string]any{"queries": [][]float64{queries[qis[0]], queries[qis[1]]}}
				var path, tag string
				if lrng.Intn(2) == 0 {
					body["k"] = n + 10 // clamped to live n: every probe returned
					path, tag = "/v1/topk", "topk"
				} else {
					body["theta"] = 0.01 // below every value: every probe returned
					path, tag = "/v1/above", "above"
				}
				buf, _ := json.Marshal(body)
				resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
				if err != nil {
					errs <- err
					return
				}
				var out struct {
					Results [][]struct {
						Probe int     `json:"probe"`
						Value float64 `json:"value"`
					} `json:"results"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if err := checkRows(tag, qis, out.Results); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}

	// Updater: at batch e, every probe's vector becomes base × (e+1).
	for e := 1; e <= epochs; e++ {
		ops := make([]map[string]any, n)
		for i := 0; i < n; i++ {
			v := make([]float64, r)
			for f := 0; f < r; f++ {
				v[f] = base.Vec(i)[f] * float64(e+1)
			}
			ops[i] = map[string]any{"op": "update", "id": i, "vector": v}
		}
		buf, _ := json.Marshal(map[string]any{"updates": ops})
		status, out := postBody(t, ts.URL+"/v1/update", string(buf))
		if status != http.StatusOK {
			t.Fatalf("update batch %d: status %d: %v", e, status, out)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	epoch, probes := getHealthz(t, ts.URL)
	if epoch != epochs || probes != n {
		t.Fatalf("final epoch %d probes %d, want %d and %d", epoch, probes, epochs, n)
	}
}

// TestRepeatRetrievesAtItsEpoch: nothing remembers answers. An identical
// request repeated with no update in between dispatches a second retrieval
// (/stats batches advances) and returns a byte-identical body; repeated after
// an update that changes its answer it returns the new values.
func TestRepeatRetrievesAtItsEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const r, n = 4, 30
	p := epochProbe(rng, r, n)
	srv, err := New(p.Clone(), Config{Shards: 2, Options: lemp.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{"queries": [][]float64{p.Vec(3)}, "k": 2})
	fetch := func() (string, []float64) {
		resp, err := http.Post(ts.URL+"/v1/topk", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var out queryResponse
		if err := json.Unmarshal(raw, &out); err != nil || len(out.Results) != 1 {
			t.Fatalf("decoding %q: %v", raw, err)
		}
		vals := make([]float64, 0, 2)
		for _, e := range out.Results[0] {
			vals = append(vals, e.Value)
		}
		return string(raw), vals
	}
	batches := func() uint64 {
		var st statsResponse
		getJSON(t, ts.URL+"/stats", &st)
		return st.Batches
	}

	first, before := fetch()
	dispatched := batches()
	if again, _ := fetch(); again != first {
		t.Fatalf("identical repeat at one epoch answered %q, then %q", first, again)
	}
	if got := batches(); got != dispatched+1 {
		t.Fatalf("identical repeat: batches %d -> %d, want one more retrieval", dispatched, got)
	}

	// Mutate: double every probe. The first answer's values are now wrong
	// for the live probe set.
	ops := make([]map[string]any, n)
	for i := 0; i < n; i++ {
		v := make([]float64, r)
		for f := 0; f < r; f++ {
			v[f] = p.Vec(i)[f] * 2
		}
		ops[i] = map[string]any{"op": "update", "id": i, "vector": v}
	}
	upd, _ := json.Marshal(map[string]any{"updates": ops})
	if status, out := postBody(t, ts.URL+"/v1/update", string(upd)); status != http.StatusOK {
		t.Fatalf("update: %d %v", status, out)
	}
	_, after := fetch()
	if len(after) != len(before) {
		t.Fatalf("post-update values %v, want 2× %v", after, before)
	}
	for i := range after {
		if math.Abs(after[i]-2*before[i]) > 1e-9*math.Abs(after[i]) {
			t.Fatalf("post-update values %v, want 2× %v", after, before)
		}
	}
}

// TestReshardPreservesMutatedIDs: rebuilding a server from a mutated
// (compacted) index must keep the catalog's external ids — a re-shard
// must never silently renumber probes.
func TestReshardPreservesMutatedIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const r, n = 4, 30
	p := epochProbe(rng, r, n)
	ix, err := lemp.New(p.Clone(), lemp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	marker := make([]float64, r)
	marker[0] = 5
	ix, _, err = ix.WithUpdates([]lemp.ProbeUpdate{
		{Op: lemp.OpRemove, ID: 3},
		{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: marker}, // id n
		{Op: lemp.OpUpdate, ID: 9, Vec: marker},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := lemp.LoadIndex(bytes.NewReader(buf.Bytes()), lemp.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithIDs(loaded.Probe(), loaded.ProbeIDs(), Config{Shards: 3, Options: lemp.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	epoch, probes := getHealthz(t, ts.URL)
	if epoch != 0 || probes != n {
		t.Fatalf("restored epoch %d probes %d, want 0 and %d", epoch, probes, n)
	}
	// id 3 must still be dead: re-adding succeeds, removing first fails.
	if status, _ := postBody(t, ts.URL+"/v1/update", `{"updates": [{"op": "remove", "id": 3}]}`); status != http.StatusBadRequest {
		t.Fatalf("removed id 3 still live after re-shard (status %d)", status)
	}
	// The marker vector must be addressable under its original ids.
	q, _ := json.Marshal(map[string]any{"queries": [][]float64{marker}, "k": 2})
	resp, err := http.Post(ts.URL+"/v1/topk", "application/json", bytes.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Results [][]struct {
			Probe int     `json:"probe"`
			Value float64 `json:"value"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := []int{out.Results[0][0].Probe, out.Results[0][1].Probe}
	if !(got[0] == 9 && got[1] == int(n) || got[0] == int(n) && got[1] == 9) {
		t.Fatalf("marker probes %v after re-shard, want {9, %d}", got, n)
	}
}

// TestEmptyShardSnapshotRestores: updates can drain a shard completely;
// its snapshot must still restore and later adds must refill it.
func TestEmptyShardSnapshotRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const r, n = 4, 4
	p := epochProbe(rng, r, n)
	srv, err := New(p.Clone(), Config{Shards: 2, Options: lemp.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1 holds ids 2 and 3; removing both drains it.
	if _, err := srv.Sharded().Update([]lemp.ProbeUpdate{
		{Op: lemp.OpRemove, ID: 2},
		{Op: lemp.OpRemove, ID: 3},
	}, 0.25); err != nil {
		t.Fatal(err)
	}
	var bufs []*bytes.Buffer
	err = srv.WriteSnapshotsWith(func(i, n int) (io.WriteCloser, error) {
		bufs = append(bufs, &bytes.Buffer{})
		return nopWriteCloser{bufs[i]}, nil
	}, lemp.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, len(bufs))
	for i, b := range bufs {
		readers[i] = bytes.NewReader(b.Bytes())
	}
	restored, err := NewFromSnapshot(readers, Config{Options: lemp.Options{Parallelism: 1}})
	if err != nil {
		t.Fatalf("restore with an emptied shard: %v", err)
	}
	if restored.Sharded().N() != 2 {
		t.Fatalf("restored %d probes, want 2", restored.Sharded().N())
	}
	// Adds go to the smallest shard — the empty one — and serve.
	res, err := restored.Sharded().Update([]lemp.ProbeUpdate{
		{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: p.Vec(0)},
	}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveN != 3 {
		t.Fatalf("LiveN %d after refill, want 3", res.LiveN)
	}
	q, _ := lemp.MatrixFromData(r, 1, append([]float64(nil), p.Vec(0)...))
	top, _, err := restored.Sharded().CurrentView().TopKCtx(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top[0]) != 3 {
		t.Fatalf("query after refill returned %d entries, want 3", len(top[0]))
	}
}

// TestReplaceOnLoadKeepsAutoIDsFresh: a restore that re-places rebuilds
// every shard from the live probes alone, so once the highest id is removed
// no new shard remembers it; the next AutoID add must still receive an id
// never used before.
func TestReplaceOnLoadKeepsAutoIDsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const r, n = 4, 12
	srv, err := New(epochProbe(rng, r, n), Config{Shards: 3, Options: lemp.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Sharded().Update([]lemp.ProbeUpdate{{Op: lemp.OpRemove, ID: n - 1}}, -1); err != nil {
		t.Fatal(err)
	}
	restored, err := NewFromSnapshot(snapshotReaders(writeShardSnapshots(t, srv)), Config{Shards: 2, Options: lemp.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Sharded().NumShards(); got != 2 {
		t.Fatalf("restored %d shards, want 2", got)
	}
	res, err := restored.Sharded().Update([]lemp.ProbeUpdate{{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: randVec(rng, r)}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.IDs[0] != n {
		t.Fatalf("AutoID add after the re-placing restore got id %d, want the never-used %d", res.IDs[0], n)
	}
}

// octantProbe is epochProbe with lengths spread over [0.5, 2): inner
// products with positive-octant queries stay positive and tie-free, and the
// probes fill more than one length bucket.
func octantProbe(rng *rand.Rand, r, n int) *lemp.Matrix {
	p := epochProbe(rng, r, n)
	for i := range n {
		vecmath.Scale(p.Vec(i), p.Vec(i), 0.5+1.5*rng.Float64())
	}
	return p
}

// catalogMatrix lays a catalog out as internal/naive reads it: column col
// holds the vector of ids[col], ids ascending.
func catalogMatrix(r int, cat map[int32][]float64) (*lemp.Matrix, []int32) {
	ids := slices.Sorted(maps.Keys(cat))
	p := lemp.NewMatrix(r, len(ids))
	for col, id := range ids {
		copy(p.Vec(col), cat[id])
	}
	return p, ids
}

// TestUpdateBatchInvariants: the rules of one batch hold through the shard
// set whatever the batch's net effect. An accepted batch whose net effect is
// empty (an AutoID add, then the remove of that id) still advances the epoch
// by one and consumes its id; a live id removed and re-added in one batch is
// live once, with the new vector; a new id added and then updated is live
// with the final vector. After each batch the shards hold exactly the
// expected catalog, cat, and answer as internal/naive does over it.
func TestUpdateBatchInvariants(t *testing.T) {
	for _, kind := range []Placement{PlaceRange, PlaceCluster} {
		rng := rand.New(rand.NewSource(71))
		const r, n = 4, 40
		p := octantProbe(rng, r, n)
		sh, err := NewShardedPlaced(p.Clone(), nil, 3, lemp.Options{Parallelism: 1}, kind)
		if err != nil {
			t.Fatal(err)
		}
		cat := make(map[int32][]float64, n)
		for i := range n {
			cat[int32(i)] = p.Vec(i)
		}
		q := octantProbe(rng, r, 6)
		vec := func() []float64 { return octantProbe(rng, r, 1).Vec(0) }
		apply := func(step string, ups []lemp.ProbeUpdate, wantIDs ...int32) {
			t.Helper()
			step = fmt.Sprintf("%s: %s", kind, step)
			epoch := sh.Epoch()
			res, err := sh.Update(ups, -1)
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if res.Epoch != epoch+1 || sh.Epoch() != epoch+1 {
				t.Fatalf("%s: epoch %d → %d (reported %d), want +1", step, epoch, sh.Epoch(), res.Epoch)
			}
			if !slices.Equal(res.IDs, wantIDs) {
				t.Fatalf("%s: ids %v, want %v", step, res.IDs, wantIDs)
			}
			gotP, gotIDs := liveSet(sh)
			if res.LiveN != len(cat) || len(gotIDs) != len(cat) {
				t.Fatalf("%s: %d live probes (reported %d), want %d", step, len(gotIDs), res.LiveN, len(cat))
			}
			for col, id := range gotIDs {
				if want, ok := cat[id]; !ok || !slices.Equal(gotP.Vec(col), want) {
					t.Fatalf("%s: live probe %d holds %v, want %v (live %v)", step, id, gotP.Vec(col), want, ok)
				}
			}
			wantP, ids := catalogMatrix(r, cat)
			answersLikeNaive(t, step, sh, wantP, ids, q)
		}

		apply("add then remove", []lemp.ProbeUpdate{
			{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: vec()},
			{Op: lemp.OpRemove, ID: n},
		}, n, n)
		v := vec()
		cat[n+1] = v
		apply("the next AutoID add", []lemp.ProbeUpdate{{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: v}}, n+1)

		v = vec()
		cat[5] = v
		apply("remove then re-add", []lemp.ProbeUpdate{
			{Op: lemp.OpRemove, ID: 5},
			{Op: lemp.OpAdd, ID: 5, Vec: v},
		}, 5, 5)

		v = vec()
		cat[1000] = v
		apply("add then update", []lemp.ProbeUpdate{
			{Op: lemp.OpAdd, ID: 1000, Vec: vec()},
			{Op: lemp.OpUpdate, ID: 1000, Vec: v},
		}, 1000, 1000)
	}
}

// shardedBatch draws one random mutation batch against a catalog whose live
// ids are live and whose next AutoID is next: AutoID and explicit-id adds,
// removes and rewrites of live, dead and never-used ids, ops on ids the
// batch already named, and now and then an invalid op — an id below 0 or
// past MaxProbeID, a short vector, an unknown op. Until the id space is
// exhausted, a late batch opens with an add at MaxProbeID, which exhausts it.
func shardedBatch(rng *rand.Rand, r int, live []int32, next int32, late bool) []lemp.ProbeUpdate {
	var named []int32
	pick := func() int32 {
		switch roll := rng.Intn(6); {
		case roll < 2 && len(named) > 0:
			return named[rng.Intn(len(named))]
		case roll < 5 && len(live) > 0:
			return live[rng.Intn(len(live))]
		}
		return rng.Int31n(int32(2*len(live) + 8))
	}
	vec := func() []float64 {
		if rng.Intn(30) == 0 {
			return octantProbe(rng, r-1, 1).Vec(0)
		}
		return octantProbe(rng, r, 1).Vec(0)
	}
	ups := make([]lemp.ProbeUpdate, 1+rng.Intn(5))
	for i := range ups {
		up := &ups[i]
		roll := rng.Intn(40)
		if i == 0 && late && next <= lemp.MaxProbeID {
			roll = 40
		}
		switch {
		case roll < 12:
			*up = lemp.ProbeUpdate{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: vec()}
			named = append(named, next)
			if next <= lemp.MaxProbeID {
				next++
			}
		case roll < 18:
			*up = lemp.ProbeUpdate{Op: lemp.OpAdd, ID: pick(), Vec: vec()}
		case roll < 28:
			*up = lemp.ProbeUpdate{Op: lemp.OpRemove, ID: pick()}
		case roll < 38:
			*up = lemp.ProbeUpdate{Op: lemp.OpUpdate, ID: pick(), Vec: vec()}
		case roll == 38:
			bad := []int32{-3, lemp.MaxProbeID + 1}[rng.Intn(2)]
			*up = lemp.ProbeUpdate{Op: lemp.UpdateOp(rng.Intn(3)), ID: bad, Vec: vec()}
		case roll == 39:
			*up = lemp.ProbeUpdate{Op: lemp.UpdateOp(3 + rng.Intn(5)), ID: pick()}
		default:
			*up = lemp.ProbeUpdate{Op: lemp.OpAdd, ID: lemp.MaxProbeID, Vec: vec()}
		}
		if up.Op == lemp.OpRemove {
			up.Vec = nil
		}
		if up.ID != lemp.AutoID {
			named = append(named, up.ID)
		}
	}
	return ups
}

// TestShardedUpdatesMatchIndex is the differential harness between the two
// entry points that apply update batches: the same random batch sequence,
// valid and invalid ops mixed, goes to a shard set under each placement and
// shard count and to one unsharded index over the same catalog. Both must
// accept or refuse each batch alike (a refusal with the same error), report
// the same per-op ids, and agree on the epoch, the next AutoID and the live
// ids; after every accepted batch the shard set answers as internal/naive
// does over the index's live probes, and its Row-Top-k as the index's.
func TestShardedUpdatesMatchIndex(t *testing.T) {
	batches := 200
	if testing.Short() {
		batches = 40
	}
	for _, kind := range []Placement{PlaceRange, PlaceCluster} {
		for shards := 1; shards <= 3; shards++ {
			name := fmt.Sprintf("%s/%d", kind, shards)
			rng := rand.New(rand.NewSource(int64(83 + shards)))
			const r, n = 5, 36
			p := octantProbe(rng, r, n)
			opts := lemp.Options{Parallelism: 1, MinBucketSize: 4}
			sh, err := NewShardedPlaced(p.Clone(), nil, shards, opts, kind)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := lemp.New(p.Clone(), opts)
			if err != nil {
				t.Fatal(err)
			}
			q := octantProbe(rng, r, 4)
			accepted := 0
			for b := range batches {
				ups := shardedBatch(rng, r, ix.LiveIDs(), ix.NextID(), b >= batches-10)
				step := fmt.Sprintf("%s batch %d %v", name, b, ups)
				res, errS := sh.Update(ups, 0.5)
				nix, ids, errI := ix.WithUpdates(ups)
				if (errS == nil) != (errI == nil) || errS != nil && errS.Error() != errI.Error() {
					t.Fatalf("%s: sharded error %v, index error %v", step, errS, errI)
				}
				if errI == nil {
					accepted++
					ix = nix
					if !slices.Equal(res.IDs, ids) || res.Epoch != ix.Epoch() || res.LiveN != ix.N() {
						t.Fatalf("%s: sharded ids %v epoch %d live %d, index %v %d %d", step, res.IDs, res.Epoch, res.LiveN, ids, ix.Epoch(), ix.N())
					}
				}
				var live []int32
				for _, six := range sh.Indexes() {
					live = append(live, six.LiveIDs()...)
				}
				slices.Sort(live)
				if sh.Epoch() != ix.Epoch() || sh.nextID != ix.NextID() || !slices.Equal(live, ix.LiveIDs()) {
					t.Fatalf("%s: sharded epoch %d next id %d live %v, index %d %d %v",
						step, sh.Epoch(), sh.nextID, live, ix.Epoch(), ix.NextID(), ix.LiveIDs())
				}
				if errI != nil {
					continue
				}
				lp, lids := ix.LiveProbes()
				answersLikeNaive(t, step, sh, lp, lids, q)
				got, _, err := sh.CurrentView().TopKCtx(context.Background(), q, 4)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ix.Retrieve(context.Background(), q, lemp.TopK(4))
				if err != nil {
					t.Fatal(err)
				}
				compareTopKValues(t, step, got, want.TopK)
			}
			if accepted < batches/4 || accepted == batches {
				t.Fatalf("%s: %d of %d batches accepted; the mix must exercise both outcomes", name, accepted, batches)
			}
			t.Logf("%s: %d of %d batches accepted", name, accepted, batches)
		}
	}
}
