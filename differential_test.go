package lemp_test

// The differential harness: one case generator, one reference and one
// agreement rule for every entry point that answers Above-θ or Row-Top-k.
//
// The reference is a fresh lemp.NewWithIDs over the live catalog under
// algorithm L, held to internal/naive within tolerance(r)·‖q‖·‖p‖: its
// every value near its own probe's product, its Row-Top-k values rank by
// rank near naive's, and at a safe θ — midway in a gap between naive values
// wider than four tolerances — naive's Above-θ entry set. Every other entry
// point must agree with the reference bit for bit (agree). Values are
// compared only within one problem: Row-Top-k computes (q̄ᵀp̄·‖p‖)·‖q‖ and
// Above-θ (q̄ᵀp̄·‖q‖)·‖p‖, which can differ in the last bit.
//
// Above-θ runs at two thresholds: the safe θ, and an exact θ equal to a value
// the reference returned at a lower θ. At the exact θ the reference must
// return that entry and every entry point the same set, so no pruning bound
// may drop an entry whose computed value reaches θ.
//
//	go test -run 'Differential|TieContract' .       # the harness
//	go test -run '^$' -fuzz FuzzDifferential .       # more generated cases

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
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"lemp"
	"lemp/internal/naive"
	"lemp/internal/server"
	"lemp/internal/vecmath"
)

// tolerance bounds |LEMP's value − naive's| relative to ‖q‖·‖p‖: twice the
// pruning bounds' slack δ(r) = (r+8)·2⁻⁵² (internal/core boundSlack), which
// covers LEMP's normalization, dot and multiplications and naive's dot.
func tolerance(r int) float64 { return float64(r+8) * 0x1p-51 }

var allAlgorithms = []lemp.Algorithm{
	lemp.AlgorithmLI, lemp.AlgorithmL, lemp.AlgorithmC, lemp.AlgorithmI, lemp.AlgorithmLC,
}

// diffCase is a catalog (nil ids name columns 0..n−1), queries, a k and the
// options the case's indexes are built with.
type diffCase struct {
	p, q *lemp.Matrix
	ids  []int32
	k    int
	opts lemp.Options
}

// genCase draws a case: r ∈ {1, 2, 3, 8, 17, 50}; n mostly below 120, up to
// about 900; a catalog with zero vectors, exact duplicates and scaled copies
// of one direction, integer-valued one time in three so that products tie
// exactly; ids 0..n−1 or shuffled and sparse; zero queries and queries
// parallel to a probe; k ∈ {1, 3, 10, n+5}; and options over every
// algorithm, Quantize, TuneByCost, MinBucketSize and CacheBytes −1.
func genCase(seed int64) diffCase {
	rng := rand.New(rand.NewSource(seed))
	r := []int{1, 2, 3, 8, 17, 50}[rng.Intn(6)]
	n := rng.Intn(120)
	if rng.Intn(6) == 0 {
		n = rng.Intn(900)
	}
	integer := rng.Intn(3) == 0
	vec := func() []float64 {
		v, scale := make([]float64, r), math.Exp(rng.NormFloat64())
		for f := range v {
			v[f] = scale * rng.NormFloat64()
			if integer {
				v[f] = float64(rng.Intn(7) - 3)
			}
		}
		return v
	}
	scaled := func(v []float64) []float64 {
		if integer {
			return scale(float64(1+rng.Intn(4)), v)
		}
		return scale(math.Exp(rng.NormFloat64()), v)
	}
	dir := vec()
	c := diffCase{p: lemp.NewMatrix(r, n), q: lemp.NewMatrix(r, 1+rng.Intn(5)), k: []int{1, 3, 10, n + 5}[rng.Intn(4)]}
	for i := 0; i < n; i++ {
		switch x := rng.Intn(10); {
		case x == 0: // a zero vector
		case x == 1 && i > 0:
			copy(c.p.Vec(i), c.p.Vec(rng.Intn(i)))
		case x < 5:
			copy(c.p.Vec(i), scaled(dir))
		default:
			copy(c.p.Vec(i), vec())
		}
	}
	if rng.Intn(2) == 0 {
		c.ids = make([]int32, n)
		for col, k := range rng.Perm(n) {
			c.ids[col] = int32(3*k + 1 + rng.Intn(3))
		}
	}
	for i := 0; i < c.q.N(); i++ {
		switch x := rng.Intn(6); {
		case x == 0: // a zero query
		case x < 3 && n > 0:
			copy(c.q.Vec(i), scaled(c.p.Vec(rng.Intn(n))))
		case x == 3:
			copy(c.q.Vec(i), scaled(dir))
		default:
			copy(c.q.Vec(i), vec())
		}
	}
	c.opts = lemp.Options{
		Algorithm:     allAlgorithms[rng.Intn(len(allAlgorithms))],
		Quantize:      rng.Intn(2) == 0,
		TuneByCost:    rng.Intn(2) == 0,
		MinBucketSize: []int{0, 1, 5, 30}[rng.Intn(4)],
		CacheBytes:    []int{0, -1, 2048}[rng.Intn(3)],
		SampleQueries: 4,
		Parallelism:   1,
		Seed:          seed,
	}
	return c
}

// An entryPoint answers Row-Top-k when k > 0, else Above-θ at theta, as one
// row per query.
type entryPoint struct {
	name string
	run  func(q *lemp.Matrix, k int, theta float64) ([][]lemp.Entry, error)
}

// answer runs ep, sorting Above-θ rows by probe.
func (ep entryPoint) answer(t *testing.T, tag string, q *lemp.Matrix, k int, theta float64) [][]lemp.Entry {
	t.Helper()
	rows, err := ep.run(q, k, theta)
	if err == nil && len(rows) != q.N() {
		err = fmt.Errorf("%d rows for %d queries", len(rows), q.N())
	}
	if err != nil {
		t.Fatalf("%s: %s (k=%d θ=%v): %v", tag, ep.name, k, theta, err)
	}
	for _, row := range rows {
		if k == 0 {
			sort.Slice(row, func(a, b int) bool { return row[a].Probe < row[b].Probe })
		}
	}
	return rows
}

func byQuery(m int, entries []lemp.Entry) [][]lemp.Entry {
	rows := make([][]lemp.Entry, m)
	for _, e := range entries {
		rows[e.Query] = append(rows[e.Query], e)
	}
	return rows
}

// retrieveEP is Index.Retrieve with per-call options; with stream, Above-θ
// entries arrive through lemp.Stream.
func retrieveEP(name string, ix *lemp.Index, stream bool, opts ...lemp.Option) entryPoint {
	return entryPoint{name, func(q *lemp.Matrix, k int, theta float64) ([][]lemp.Entry, error) {
		var streamed []lemp.Entry
		o := append([]lemp.Option{lemp.AboveTheta(theta)}, opts...)
		if k > 0 {
			o[0] = lemp.TopK(k)
		} else if stream {
			o = append(o, lemp.Stream(func(e lemp.Entry) { streamed = append(streamed, e) }))
		}
		res, err := ix.Retrieve(context.Background(), q, o...)
		switch {
		case err != nil:
			return nil, err
		case k > 0:
			return res.TopK, nil
		case stream:
			return byQuery(q.N(), streamed), nil
		}
		return byQuery(q.N(), res.Entries), nil
	}}
}

// bulkEP runs a bulk job into a result file and reads the file back.
func bulkEP(t *testing.T, ix *lemp.Index, panelRows, par int) entryPoint {
	return entryPoint{fmt.Sprintf("bulk %d rows par %d", panelRows, par), func(q *lemp.Matrix, k int, theta float64) ([][]lemp.Entry, error) {
		out, opts := filepath.Join(t.TempDir(), "out"), lemp.BulkOptions{PanelRows: panelRows, Parallelism: par}
		var err error
		if k > 0 {
			_, err = ix.BulkTopK(context.Background(), lemp.BulkQueries(q), out, k, opts)
		} else {
			_, err = ix.BulkAboveTheta(context.Background(), lemp.BulkQueries(q), out, theta, opts)
		}
		if err != nil {
			return nil, err
		}
		res, err := lemp.ReadBulkResults(out)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}}
}

// viewEP answers on a shard set's current view.
func viewEP(name string, sh *server.Sharded) entryPoint {
	return entryPoint{name + " view", func(q *lemp.Matrix, k int, theta float64) ([][]lemp.Entry, error) {
		if k > 0 {
			rows, _, err := sh.CurrentView().TopKCtx(context.Background(), q, k)
			return rows, err
		}
		rows, _, err := sh.CurrentView().AboveThetaCtx(context.Background(), q, theta)
		return rows, err
	}}
}

// batcherEP submits every query row as a request of its own, all at once, so
// that rows coalesce into batches and are scattered back.
func batcherEP(name string, sh *server.Sharded) entryPoint {
	b := server.NewBatcher(sh, 2*time.Millisecond, 64, 0)
	return entryPoint{name + " batcher", func(q *lemp.Matrix, k int, theta float64) ([][]lemp.Entry, error) {
		v, rows, errs := sh.CurrentView(), make([][]lemp.Entry, q.N()), make([]error, q.N())
		var wg sync.WaitGroup
		for i := range rows {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got [][]lemp.Entry
				if k > 0 {
					got, _, errs[i] = b.TopKAt(context.Background(), v, q.Vec(i), 1, k)
				} else {
					got, _, errs[i] = b.AboveThetaAt(context.Background(), v, q.Vec(i), 1, theta)
				}
				if errs[i] == nil {
					for _, e := range got[0] {
						rows[i] = append(rows[i], lemp.Entry{Query: i, Probe: e.Probe, Value: e.Value})
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return rows, nil
	}}
}

// httpEP posts the queries to the server's /v1/topk or /v1/above.
func httpEP(name string, srv *server.Server) entryPoint {
	h := srv.Handler()
	return entryPoint{name + " http", func(q *lemp.Matrix, k int, theta float64) ([][]lemp.Entry, error) {
		return postQueries(h, q, k, theta)
	}}
}

func postQueries(h http.Handler, q *lemp.Matrix, k int, theta float64) ([][]lemp.Entry, error) {
	queries := make([][]float64, q.N())
	for i := range queries {
		queries[i] = q.Vec(i)
	}
	path, body := "/v1/above", map[string]any{"queries": queries, "theta": theta}
	if k > 0 {
		path, body = "/v1/topk", map[string]any{"queries": queries, "k": k}
	}
	buf, _ := json.Marshal(body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(buf)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %d %s", path, rec.Code, rec.Body)
	}
	var resp struct{ Results [][]lemp.Entry }
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, err
	}
	for i, row := range resp.Results {
		for j := range row {
			row[j].Query = i
		}
	}
	return resp.Results, nil
}

// roundTrip writes ix as a snapshot and loads it back.
func roundTrip(t *testing.T, ix *lemp.Index, so lemp.SnapshotOptions, lo lemp.LoadOptions) *lemp.Index {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.WriteSnapshotWith(&buf, so); err != nil {
		t.Fatal(err)
	}
	loaded, err := lemp.LoadIndex(&buf, lo)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

// restoredServer starts a server from srv's shard snapshots under cfg.
func restoredServer(t *testing.T, srv *server.Server, cfg server.Config) *server.Sharded {
	t.Helper()
	var readers []io.Reader
	err := srv.WriteSnapshotsWith(func(int, int) (io.WriteCloser, error) {
		buf := new(bytes.Buffer)
		readers = append(readers, buf)
		return nopCloser{buf}, nil
	}, lemp.SnapshotOptions{IncludeLists: true})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := server.NewFromSnapshot(readers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return restored.Sharded()
}

// caseEntryPoints returns Retrieve under every algorithm and three of the
// other entry points, rotated by the case number n so that each one meets
// every kind of catalog in turn.
func caseEntryPoints(t *testing.T, c diffCase, n int) []entryPoint {
	must := func(ix *lemp.Index, err error) *lemp.Index {
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	ix := must(lemp.NewWithIDs(c.p, c.ids, c.opts))
	var eps []entryPoint
	for _, a := range allAlgorithms {
		eps = append(eps, retrieveEP("Retrieve "+a.String(), ix, false, lemp.WithAlgorithm(a)))
	}
	srv := func(shards int, placement string) *server.Server {
		s, err := server.NewWithIDs(c.p, c.ids, server.Config{Shards: shards, Placement: placement, Options: c.opts})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	pretuned := func(k int) *lemp.Index {
		pre := must(lemp.NewWithIDs(c.p, c.ids, c.opts))
		err := pre.PretuneAboveTheta(c.q, 1)
		if k > 0 {
			err = pre.PretuneTopK(c.q, k)
		}
		return must(pre, err)
	}
	others := []func() entryPoint{
		func() entryPoint { return retrieveEP("Retrieve par 3", ix, false, lemp.WithParallelism(3)) },
		func() entryPoint { return retrieveEP("Retrieve stream par 3", ix, true, lemp.WithParallelism(3)) },
		func() entryPoint { return bulkEP(t, ix, 1, 1) },
		func() entryPoint { return bulkEP(t, ix, 7, 3) },
		func() entryPoint { return bulkEP(t, ix, 256, 1) },
		func() entryPoint { return bulkEP(t, ix, 1, 3) },
		func() entryPoint { return bulkEP(t, ix, 7, 1) },
		func() entryPoint { return bulkEP(t, ix, 256, 3) },
		func() entryPoint {
			return retrieveEP("snapshot with lists", roundTrip(t, ix, lemp.SnapshotOptions{IncludeLists: true}, lemp.LoadOptions{}), false)
		},
		func() entryPoint {
			lo := lemp.LoadOptions{Quant: lemp.QuantOn}
			return retrieveEP("pretuned snapshot, Quant on", roundTrip(t, pretuned(c.k), lemp.SnapshotOptions{IncludeLists: true}, lo), false)
		},
		func() entryPoint {
			lo := lemp.LoadOptions{Quant: lemp.QuantOff, Retune: true, Parallelism: 3}
			return retrieveEP("pretuned snapshot, Quant off, Retune, par 3", roundTrip(t, pretuned(0), lemp.SnapshotOptions{}, lo), false)
		},
	}
	if c.p.N() > 0 { // a server refuses an empty catalog
		others = append(others,
			func() entryPoint { return viewEP("range 1", srv(1, "range").Sharded()) },
			func() entryPoint { return viewEP("range 2", srv(2, "range").Sharded()) },
			func() entryPoint { return viewEP("cluster 3", srv(3, "cluster").Sharded()) },
			func() entryPoint { return batcherEP("range 3", srv(3, "range").Sharded()) },
			func() entryPoint { return batcherEP("cluster 2", srv(2, "cluster").Sharded()) },
			func() entryPoint { return httpEP("range 2", srv(2, "range")) },
			func() entryPoint { return httpEP("cluster 1", srv(1, "cluster")) },
			func() entryPoint {
				return viewEP("2 shards restored", restoredServer(t, srv(2, "cluster"), server.Config{}))
			},
			func() entryPoint {
				return viewEP("2 shards restored into 3", restoredServer(t, srv(2, "range"), server.Config{Shards: 3, Placement: "cluster"}))
			})
	}
	for j := 0; j < 3; j++ {
		eps = append(eps, others[(3*n+j)%len(others)]())
	}
	return eps
}

// agree is the agreement rule. Above-θ rows, sorted by probe, must be
// byte-identical. Row-Top-k rows must carry bitwise-equal values rank by rank
// and the same probe ids, except where the value is tied — equal to a
// neighbour in the row or to the row's last value — where the probe must be
// one the reference scores with exactly that value (valueOf).
func agree(t *testing.T, tag string, k int, got, want [][]lemp.Entry, valueOf func(i, probe int) (float64, bool)) {
	t.Helper()
	for i, w := range want {
		g := got[i]
		if len(g) != len(w) {
			t.Fatalf("%s: row %d has %d entries, reference %d\n got %v\nwant %v", tag, i, len(g), len(w), g, w)
		}
		seen := make(map[int]bool, len(g))
		for j := range w {
			if math.Float64bits(g[j].Value) != math.Float64bits(w[j].Value) || g[j].Query != w[j].Query || seen[g[j].Probe] {
				t.Fatalf("%s: row %d rank %d: got %+v, reference %+v", tag, i, j, g[j], w[j])
			}
			seen[g[j].Probe] = true
			if g[j].Probe == w[j].Probe {
				continue
			}
			v := w[j].Value
			tied := k > 0 && ((j > 0 && w[j-1].Value == v) || (j+1 < len(w) && w[j+1].Value == v) || w[len(w)-1].Value == v)
			if !tied {
				t.Fatalf("%s: row %d rank %d: probe %d, reference %d (value %v)", tag, i, j, g[j].Probe, w[j].Probe, v)
			}
			if rv, ok := valueOf(i, g[j].Probe); !ok || math.Float64bits(rv) != math.Float64bits(v) {
				t.Fatalf("%s: row %d rank %d: tied probe %d scores %v, not %v", tag, i, j, g[j].Probe, rv, v)
			}
		}
	}
}

// reference is the fresh index over a catalog, which it keeps for naive.
type reference struct {
	ix   *lemp.Index
	p    *lemp.Matrix
	cols map[int32]int // probe id → column of p
	tol  float64       // tolerance(r)·max‖p‖
}

func newReference(t *testing.T, p *lemp.Matrix, ids []int32) *reference {
	t.Helper()
	ix, err := lemp.NewWithIDs(p, ids, lemp.Options{Algorithm: lemp.AlgorithmL, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{ix: ix, p: p, cols: make(map[int32]int, p.N())}
	for col := 0; col < p.N(); col++ {
		id := int32(col)
		if ids != nil {
			id = ids[col]
		}
		ref.cols[id] = col
		ref.tol = max(ref.tol, tolerance(p.R())*vecmath.Norm(p.Vec(col)))
	}
	return ref
}

// checkAgainstNaive holds the reference's rows to internal/naive.
func (ref *reference) checkAgainstNaive(t *testing.T, tag string, q *lemp.Matrix, k int, theta float64, rows [][]lemp.Entry) {
	t.Helper()
	var want [][]lemp.Entry
	if k > 0 {
		want, _ = naive.RowTopK(q, ref.p, k)
	} else {
		var entries []lemp.Entry
		naive.AboveTheta(q, ref.p, theta, func(e lemp.Entry) { entries = append(entries, e) })
		want = byQuery(q.N(), entries)
	}
	for i, row := range rows {
		qv, tol := q.Vec(i), ref.tol*vecmath.Norm(q.Vec(i))
		if len(row) != len(want[i]) {
			t.Fatalf("%s: reference row %d has %d entries, naive %d (k=%d θ=%v)", tag, i, len(row), len(want[i]), k, theta)
		}
		cols := make(map[int]bool, len(row))
		for j, e := range row {
			col, ok := ref.cols[int32(e.Probe)]
			if v := vecmath.Dot(qv, ref.p.Vec(col)); !ok || math.Abs(e.Value-v) > tol {
				t.Fatalf("%s: reference entry %+v is not its product %v", tag, e, v)
			}
			if k > 0 && math.Abs(e.Value-want[i][j].Value) > tol {
				t.Fatalf("%s: reference row %d rank %d: %v, naive %v", tag, i, j, e.Value, want[i][j].Value)
			}
			cols[col] = true
		}
		for _, e := range want[i] {
			if k == 0 && !cols[e.Probe] {
				t.Fatalf("%s: reference row %d misses naive's column %d (θ=%v)", tag, i, e.Probe, theta)
			}
		}
	}
}

// safeTheta returns a θ > 0 midway in a gap between naive values wider than
// four tolerances, near a random level, or false if there is none.
func (ref *reference) safeTheta(q *lemp.Matrix, rng *rand.Rand) (float64, bool) {
	vals, gap := []float64{0}, 0.0
	for i := 0; i < q.N(); i++ {
		gap = max(gap, 4*ref.tol*vecmath.Norm(q.Vec(i)))
		for col := 0; col < ref.p.N(); col++ {
			if v := vecmath.Dot(q.Vec(i), ref.p.Vec(col)); v > 0 {
				vals = append(vals, v)
			}
		}
	}
	slices.Sort(vals)
	for d, start := 0, 1+rng.Intn(len(vals)); d < len(vals); d++ {
		for _, l := range []int{start + d, start - d} {
			if l >= 1 && l < len(vals) && vals[l]-vals[l-1] > gap {
				return (vals[l] + vals[l-1]) / 2, true
			}
		}
	}
	return 0, false
}

// check answers q through the reference and every entry point: Row-Top-k at
// k, Above-θ at a safe θ, and Above-θ at an exact θ.
func check(t *testing.T, tag string, ref *reference, q *lemp.Matrix, k int, rng *rand.Rand, eps ...entryPoint) {
	t.Helper()
	refEP := retrieveEP("reference", ref.ix, false)
	var full [][]lemp.Entry // the reference's whole Row-Top-k rows, for ties
	valueOf := func(i, probe int) (float64, bool) {
		if full == nil {
			full = refEP.answer(t, tag, q, max(1, ref.ix.N()), 0)
		}
		j := slices.IndexFunc(full[i], func(e lemp.Entry) bool { return e.Probe == probe })
		if j < 0 {
			return 0, false
		}
		return full[i][j].Value, true
	}
	run := func(k int, theta float64) [][]lemp.Entry {
		want := refEP.answer(t, tag, q, k, theta)
		for _, ep := range eps {
			agree(t, fmt.Sprintf("%s: %s k=%d θ=%v", tag, ep.name, k, theta), k, ep.answer(t, tag, q, k, theta), want, valueOf)
		}
		return want
	}
	ref.checkAgainstNaive(t, tag, q, k, 0, run(k, 0))
	low := math.SmallestNonzeroFloat64
	if theta, ok := ref.safeTheta(q, rng); ok {
		ref.checkAgainstNaive(t, tag, q, 0, theta, run(0, theta))
		low = theta
	}
	below := slices.Concat(refEP.answer(t, tag, q, 0, low)...)
	if len(below) == 0 {
		return
	}
	if e := below[rng.Intn(len(below))]; !slices.Contains(run(0, e.Value)[e.Query], e) {
		t.Fatalf("%s: the reference drops %+v at θ equal to its value", tag, e)
	}
}

// TestDifferential runs generated cases through the rotated entry points.
func TestDifferential(t *testing.T) {
	cases := 150
	if testing.Short() {
		cases = 60
	}
	for n := 0; n < cases; n++ {
		c := genCase(int64(1 + n))
		tag := fmt.Sprintf("case %d (r=%d n=%d %v)", 1+n, c.p.R(), c.p.N(), c.opts.Algorithm)
		check(t, tag, newReference(t, c.p, c.ids), c.q, c.k, rand.New(rand.NewSource(int64(n))), caseEntryPoints(t, c, n)...)
	}
}

// FuzzDifferential explores the generator's seeds. The corpus keeps the
// seeds of core's two equivalence fuzzers.
func FuzzDifferential(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 99, 4, 5, 6} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := genCase(seed)
		check(t, fmt.Sprintf("seed %d", seed), newReference(t, c.p, c.ids), c.q, c.k, rand.New(rand.NewSource(seed)), caseEntryPoints(t, c, int(seed&0xffff))...)
	})
}

// TestDifferentialFixtures holds the format version 1, 2 and 5 snapshot
// files, loaded as written, quantized and retuned, and unquantized at
// Parallelism 3, to a reference over the catalog they restore.
func TestDifferentialFixtures(t *testing.T) {
	for _, name := range []string{"v1.snap", "v2.snap", "v5.snap"} {
		raw, err := os.ReadFile(filepath.Join("internal", "snapshot", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var eps []entryPoint
		var p *lemp.Matrix
		var ids []int32
		for _, lo := range []lemp.LoadOptions{{}, {Quant: lemp.QuantOn, Retune: true}, {Quant: lemp.QuantOff, Parallelism: 3}} {
			ix, err := lemp.LoadIndex(bytes.NewReader(raw), lo)
			if err != nil {
				t.Fatal(err)
			}
			p, ids = ix.LiveProbes()
			eps = append(eps, retrieveEP(fmt.Sprintf("%s %+v", name, lo), ix, false))
		}
		rng := rand.New(rand.NewSource(int64(len(raw))))
		for _, k := range []int{1, 10} {
			q := lemp.NewMatrix(p.R(), 4)
			for i := 1; i < q.N(); i++ { // row 0 stays a zero query
				copy(q.Vec(i), p.Vec(rng.Intn(p.N())))
				q.Vec(i)[0] += rng.NormFloat64()
			}
			check(t, name, newReference(t, p, ids), q, k, rng, eps...)
		}
	}
}

// TestTieContract pins which of four equal vectors under ids [7, 2, 5, 1]
// answers TopK(1): one index returns the first in its scan order, 7; a
// 2-shard range server merges shard {7, 2}'s 7 with shard {5, 1}'s 5, and
// MergeTopK keeps the lower id, 5.
func TestTieContract(t *testing.T) {
	p, _ := lemp.MatrixFromVectors([][]float64{{1, 2}, {1, 2}, {1, 2}, {1, 2}})
	q, _ := lemp.MatrixFromVectors([][]float64{{3, 1}})
	ids := []int32{7, 2, 5, 1}
	ix, err := lemp.NewWithIDs(p, ids, lemp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := ix.Retrieve(context.Background(), q, lemp.TopK(1)); err != nil || res.TopK[0][0].Probe != 7 {
		t.Fatalf("one index: %v, %v; want probe 7", res, err)
	}
	srv, err := server.NewWithIDs(p, ids, server.Config{Shards: 2, Placement: "range"})
	if err != nil {
		t.Fatal(err)
	}
	if rows, _, err := srv.Sharded().CurrentView().TopKCtx(context.Background(), q, 1); err != nil || rows[0][0].Probe != 5 {
		t.Fatalf("2-shard range server: %v, %v; want probe 5", rows, err)
	}
}

// catalog is the live probe set by id that mutated indexes are held to.
type catalog map[int32][]float64

func (c catalog) ids() []int32 { return slices.Sorted(maps.Keys(c)) }

// matrix returns the catalog's probes in ascending id order, and the ids.
func (c catalog) matrix(r int) (*lemp.Matrix, []int32) {
	ids := c.ids()
	p := lemp.NewMatrix(r, len(ids))
	for col, id := range ids {
		copy(p.Vec(col), c[id])
	}
	return p, ids
}

// scale returns c·v.
func scale(c float64, v []float64) []float64 {
	out := make([]float64, len(v))
	for f, x := range v {
		out[f] = c * x
	}
	return out
}

func randVec(rng *rand.Rand, r int) []float64 {
	v := make([]float64, r)
	for f := range v {
		v[f] = rng.NormFloat64()
	}
	return v
}

// mutationBatch draws 1..6 ops valid in sequence against live: AutoID adds,
// revivals of a removed id, rewrites and removes of a live id (most picking
// from prefer, when it names a live id). One batch in five also carries a bad
// op: a remove of an id never used, an add of a live id, a vector of the
// wrong dimension or with a NaN, or an unknown op.
func mutationBatch(rng *rand.Rand, r int, live catalog, gone *[]int32, nextID int32, prefer []int32) []lemp.ProbeUpdate {
	model, ids := maps.Clone(live), live.ids()
	pick := func() (int32, bool) {
		for try := 0; try < 6; try++ {
			from := ids
			if try < 3 && len(prefer) > 0 {
				from = prefer
			}
			if len(from) == 0 {
				break
			}
			if id := from[rng.Intn(len(from))]; model[id] != nil {
				return id, true
			}
		}
		if ids = model.ids(); len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	ups := []lemp.ProbeUpdate{}
	for n := 1 + rng.Intn(6); len(ups) < n; {
		id, ok := pick()
		switch op := rng.Intn(10); {
		case op < 4 || !ok:
			up := lemp.ProbeUpdate{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: randVec(rng, r)}
			if g := len(*gone); g > 0 && rng.Intn(3) == 0 && model[(*gone)[g-1]] == nil {
				up.ID, *gone = (*gone)[g-1], (*gone)[:g-1]
				model[up.ID] = up.Vec
			}
			ups = append(ups, up)
		case op < 7:
			ups = append(ups, lemp.ProbeUpdate{Op: lemp.OpUpdate, ID: id, Vec: randVec(rng, r)})
			model[id] = ups[len(ups)-1].Vec
		default:
			ups = append(ups, lemp.ProbeUpdate{Op: lemp.OpRemove, ID: id})
			delete(model, id)
			*gone = append(*gone, id)
		}
	}
	if rng.Intn(5) == 0 {
		bad := lemp.ProbeUpdate{Op: lemp.OpRemove, ID: nextID + 1000}
		switch id, ok := pick(); rng.Intn(4) {
		case 0:
			if ok {
				bad = lemp.ProbeUpdate{Op: lemp.OpAdd, ID: id, Vec: randVec(rng, r)}
			}
		case 1:
			bad = lemp.ProbeUpdate{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: randVec(rng, r+1)}
		case 2:
			bad = lemp.ProbeUpdate{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: randVec(rng, r)}
			bad.Vec[rng.Intn(r)] = math.NaN()
		case 3:
			if ok {
				bad = lemp.ProbeUpdate{Op: lemp.UpdateOp(7), ID: id}
			}
		}
		ups = slices.Insert(ups, rng.Intn(len(ups)+1), bad)
	}
	return ups
}

// sequence drives one mutation sequence: steps batches through WithUpdates
// and, when sh is not nil, batch for batch through Sharded.Update, which
// must accept or refuse each alike, with the same error text, ids, epoch and
// live set. keep, checkAt and compact decide per step whether the index is
// kept as an ancestor, checked against the reference over the live catalog
// (through Retrieve and the server's view) and compacted. At the end every
// kept ancestor is checked again, and so is the last index after a snapshot
// round trip. long sequences aim their ops at the ids earlier batches added
// or rewrote. It returns the checks made and the batches refused.
func sequence(t *testing.T, seq string, rng *rand.Rand, ix *lemp.Index, sh *server.Sharded, live catalog, steps int, long bool,
	keep, checkAt func(step int) bool, compact func(ix *lemp.Index)) (checks, refused int) {
	r := ix.R()
	type version struct {
		ix   *lemp.Index
		live catalog
		step int
	}
	var kept []version
	var recent, gone []int32
	checkOne := func(tag string, live catalog, m int, eps ...entryPoint) {
		p, ids := live.matrix(r)
		q := lemp.NewMatrix(r, m)
		for i := 0; i < m; i++ {
			if rng.Intn(6) != 0 { // else a zero query
				copy(q.Vec(i), randVec(rng, r))
			}
		}
		check(t, tag, newReference(t, p, ids), q, []int{1, 3, 10, len(live) + 5}[rng.Intn(4)], rng, eps...)
		checks++
	}
	for step := 0; step < steps; step++ {
		tag := fmt.Sprintf("%s step %d", seq, step)
		ups := mutationBatch(rng, r, live, &gone, ix.NextID(), recent)
		next, ids, err := ix.WithUpdates(ups)
		if sh != nil {
			res, errS := sh.Update(ups, 0.5)
			if (err == nil) != (errS == nil) || err != nil && err.Error() != errS.Error() ||
				err == nil && (!slices.Equal(res.IDs, ids) || res.Epoch != next.Epoch() || res.LiveN != next.N()) {
				t.Fatalf("%s %v: index %v %v, server %+v %v", tag, ups, ids, err, res, errS)
			}
		}
		if keep(step) {
			kept = append(kept, version{ix, maps.Clone(live), step})
		}
		if err != nil {
			refused++
		} else {
			if next.Epoch() != ix.Epoch()+1 {
				t.Fatalf("%s: epoch %d after a batch at epoch %d", tag, next.Epoch(), ix.Epoch())
			}
			for i, up := range ups {
				if up.Op == lemp.OpRemove {
					delete(live, ids[i])
					continue
				}
				live[ids[i]] = up.Vec
				if long {
					recent = append(recent, ids[i])
				}
			}
			ix = next
		}
		compact(ix)
		ids = live.ids()
		if !slices.Equal(ix.LiveIDs(), ids) || ix.Has(ix.NextID()) || slices.ContainsFunc(gone, func(id int32) bool { return ix.Has(id) != (live[id] != nil) }) {
			t.Fatalf("%s: live ids %v, catalog %v", tag, ix.LiveIDs(), ids)
		}
		if sh != nil {
			var shIDs []int32
			for _, six := range sh.Indexes() {
				shIDs = append(shIDs, six.LiveIDs()...)
			}
			if slices.Sort(shIDs); !slices.Equal(shIDs, ids) || sh.Epoch() != ix.Epoch() {
				t.Fatalf("%s: server live ids %v epoch %d, index %v %d", tag, shIDs, sh.Epoch(), ids, ix.Epoch())
			}
		}
		if checkAt(step) {
			eps := []entryPoint{retrieveEP("mutated index", ix, false)}
			if sh != nil {
				eps = append(eps, viewEP("2-shard cluster", sh))
			}
			checkOne(tag, live, 1+rng.Intn(3), eps...)
		}
	}
	kept = append(kept, version{roundTrip(t, ix, lemp.SnapshotOptions{IncludeLists: rng.Intn(2) == 0}, lemp.LoadOptions{}), live, steps})
	for _, v := range kept {
		checkOne(fmt.Sprintf("%s: the version of step %d, re-checked at the end", seq, v.step), v.live, 3, retrieveEP("kept", v.ix, false))
	}
	return checks, refused
}

// TestDifferentialMutations runs short mutation sequences from catalogs of
// up to 90 probes, a third of them under shuffled, sparse ids whose removed
// members are revived, each through an index and, unless the catalog starts
// empty, a 2-shard cluster-placed server: 1 100 sequences with a server (200
// under -short), and those that start empty besides.
func TestDifferentialMutations(t *testing.T) {
	sequences := 1100
	if testing.Short() {
		sequences = 200
	}
	seq, checks, refused, servers := 0, 0, 0, 0
	for ; servers < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(7000 + seq)))
		r, n0 := []int{1, 2, 3, 8, 16}[rng.Intn(5)], rng.Intn(90)
		opts := lemp.Options{
			Algorithm:     allAlgorithms[seq%len(allAlgorithms)],
			MinBucketSize: []int{1, 2, 5, 30}[rng.Intn(4)],
			CacheBytes:    []int{-1, 2048, 2 << 20}[rng.Intn(3)],
			Parallelism:   1 + rng.Intn(2),
			TuneByCost:    rng.Intn(2) == 0,
			Quantize:      rng.Intn(2) == 0,
			SampleQueries: 4,
			Seed:          int64(seq + 1),
		}
		var ids []int32
		if seq%3 == 2 {
			ids = make([]int32, n0)
			for col, k := range rng.Perm(n0) {
				ids[col] = int32(5*k + 2)
			}
		}
		live, p := catalog{}, lemp.NewMatrix(r, n0)
		for col := 0; col < n0; col++ {
			copy(p.Vec(col), randVec(rng, r))
			id := int32(col)
			if ids != nil {
				id = ids[col]
			}
			live[id] = p.Vec(col)
		}
		ix, err := lemp.NewWithIDs(p, ids, opts)
		if err != nil {
			t.Fatal(err)
		}
		var sh *server.Sharded // a shard set refuses an empty catalog
		if n0 > 0 {
			if sh, err = server.NewShardedPlaced(p, ids, 2, opts, server.PlaceCluster); err != nil {
				t.Fatal(err)
			}
			servers++
		}
		c, rf := sequence(t, fmt.Sprintf("seq %d", seq), rng, ix, sh, live, 1+rng.Intn(5), false,
			func(int) bool { return rng.Intn(8) == 0 },
			func(int) bool { return rng.Intn(10) < 7 },
			func(ix *lemp.Index) {
				switch rng.Intn(6) {
				case 0:
					if ix.Compact(); ix.DeltaMass() != 0 {
						t.Fatalf("seq %d: delta mass %v after Compact", seq, ix.DeltaMass())
					}
				case 1:
					ix.MaybeCompact(0.5)
				}
			})
		checks, refused = checks+c, refused+rf
	}
	if refused == 0 {
		t.Fatal("no batch refused: the stream must mix accepted and refused batches")
	}
	t.Logf("%d sequences, %d with a server, %d checks, %d batches refused", seq, servers, checks, refused)
}

// TestDifferentialMutationsLong is the long arm: sequences of 200 batches
// aimed at the ids earlier batches added or rewrote, so that runs merge
// through several levels (TestChurnReachesThreeRuns in internal/core checks
// that they do), every index derived copy-on-write and checked every ten
// batches. Every sixteenth is kept, and at the end must still answer for its
// own catalog, whatever its descendants tombstoned, merged and compacted.
func TestDifferentialMutationsLong(t *testing.T) {
	sequences := 48
	if testing.Short() {
		sequences = 8
	}
	checks := 0
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(9000 + seq)))
		r, n0 := []int{3, 16}[seq%2], 60+rng.Intn(120)
		p, live := lemp.NewMatrix(r, n0), catalog{}
		for col := 0; col < n0; col++ {
			copy(p.Vec(col), randVec(rng, r))
			live[int32(col)] = p.Vec(col)
		}
		ix, err := lemp.New(p, lemp.Options{
			Algorithm:     allAlgorithms[(seq/16)%len(allAlgorithms)],
			MinBucketSize: []int{1, 30}[seq/2%2],
			Quantize:      seq/4%2 == 0,
			TuneByCost:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if seq/8%2 == 0 {
			sample := lemp.NewMatrix(r, 8)
			for i := 0; i < 8; i++ {
				copy(sample.Vec(i), randVec(rng, r))
			}
			if err := ix.PretuneTopK(sample, 5); err != nil {
				t.Fatal(err)
			}
		}
		c, _ := sequence(t, fmt.Sprintf("long seq %d", seq), rng, ix, nil, live, 200, true,
			func(step int) bool { return step%16 == 0 },
			func(step int) bool { return step%10 == 9 },
			func(ix *lemp.Index) {
				switch rng.Intn(60) {
				case 0:
					ix.Compact()
				case 1, 2, 3:
					ix.MaybeCompact(1.5)
				}
			})
		checks += c
	}
	t.Logf("%d sequences of 200 batches, %d checks", sequences, checks)
}
