package lemp_test

// The differential harness: one case generator, one reference and one
// agreement rule for every entry point that answers Above-θ or Row-Top-k.
//
// The reference is internal/naive over the live catalog in ascending-id
// order, and agreement is equality: every entry point returns naive's
// entries, ids and values, with ±0 counted alike. Every value is fl(qᵀp) as
// vecmath.Dot computes it, for Row-Top-k as for Above-θ, so values agree
// across the two problems too; Row-Top-k ties go to the smaller id, as
// naive's heap breaks them.
//
// Above-θ runs at two thresholds: the smallest positive θ, which returns
// every positive product, and an exact θ equal to one of those values, so
// no pruning bound may drop an entry whose value reaches θ.
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

	"lemp"
	"lemp/internal/naive"
	"lemp/internal/server"
)

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

// viewEP answers on a server's current view.
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
// that each row is its own retrieval call running beside the others.
func batcherEP(name string, sh *server.Sharded) entryPoint {
	b := server.NewBatcher(sh, 0, 0, server.BatchModeContinuous)
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
func roundTrip(t *testing.T, ix *lemp.Index, lo lemp.LoadOptions) *lemp.Index {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
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

// restoredServer starts a server from srv's snapshot under cfg.
func restoredServer(t *testing.T, srv *server.Server, cfg server.Config) *server.Sharded {
	t.Helper()
	var readers []io.Reader
	err := srv.WriteSnapshotsWith(func(int, int) (io.WriteCloser, error) {
		buf := new(bytes.Buffer)
		readers = append(readers, buf)
		return nopCloser{buf}, nil
	}, lemp.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := server.NewFromSnapshot(readers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return restored.Sharded()
}

// legacySetServer restores the case's catalog from a two-file snapshot set
// as builds whose server split its catalog into two shards wrote it — the
// even columns in one file, the odd ones in the other, each its own index —
// which the server joins into one index.
func legacySetServer(t *testing.T, c diffCase) *server.Sharded {
	t.Helper()
	var readers []io.Reader
	for half := range 2 {
		var cols []int
		for col := half; col < c.p.N(); col += 2 {
			cols = append(cols, col)
		}
		p, ids := lemp.NewMatrix(c.p.R(), len(cols)), make([]int32, len(cols))
		for j, col := range cols {
			copy(p.Vec(j), c.p.Vec(col))
			if ids[j] = int32(col); c.ids != nil {
				ids[j] = c.ids[col]
			}
		}
		ix, err := lemp.NewWithIDs(p, ids, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		buf := new(bytes.Buffer)
		if err := ix.WriteSnapshot(buf); err != nil {
			t.Fatal(err)
		}
		readers = append(readers, buf)
	}
	srv, err := server.NewFromSnapshot(readers, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return srv.Sharded()
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
	srv := func() *server.Server {
		s, err := server.NewWithIDs(c.p, c.ids, server.Config{Options: c.opts})
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
			return retrieveEP("snapshot", roundTrip(t, ix, lemp.LoadOptions{}), false)
		},
		func() entryPoint {
			lo := lemp.LoadOptions{Quant: lemp.QuantOn}
			return retrieveEP("pretuned snapshot, Quant on", roundTrip(t, pretuned(c.k), lo), false)
		},
		func() entryPoint {
			lo := lemp.LoadOptions{Quant: lemp.QuantOff, Retune: true, Parallelism: 3}
			return retrieveEP("pretuned snapshot, Quant off, Retune, par 3", roundTrip(t, pretuned(0), lo), false)
		},
	}
	if c.p.N() > 0 { // a server refuses an empty catalog
		others = append(others,
			func() entryPoint { return viewEP("server", srv().Sharded()) },
			func() entryPoint { return batcherEP("server", srv().Sharded()) },
			func() entryPoint { return httpEP("server", srv()) },
			func() entryPoint { return viewEP("server restored", restoredServer(t, srv(), server.Config{})) },
			func() entryPoint { return viewEP("two-file set joined", legacySetServer(t, c)) })
	}
	for j := 0; j < 3; j++ {
		eps = append(eps, others[(3*n+j)%len(others)]())
	}
	return eps
}

// reference is internal/naive over a catalog in ascending-id order.
type reference struct {
	p   *lemp.Matrix
	ids []int32 // by column, ascending
}

func newReference(p *lemp.Matrix, ids []int32) reference {
	cols := make([]int, p.N())
	for col := range cols {
		cols[col] = col
	}
	id := func(col int) int32 {
		if ids == nil {
			return int32(col)
		}
		return ids[col]
	}
	slices.SortFunc(cols, func(a, b int) int { return int(id(a) - id(b)) })
	ref := reference{lemp.NewMatrix(p.R(), p.N()), make([]int32, p.N())}
	for j, col := range cols {
		copy(ref.p.Vec(j), p.Vec(col))
		ref.ids[j] = id(col)
	}
	return ref
}

// answer is naive's Row-Top-k rows when k > 0, else its Above-θ rows at
// theta, in probe ids.
func (ref reference) answer(q *lemp.Matrix, k int, theta float64) [][]lemp.Entry {
	var rows [][]lemp.Entry
	if k > 0 {
		rows, _ = naive.RowTopK(q, ref.p, k)
	} else {
		var entries []lemp.Entry
		naive.AboveTheta(q, ref.p, theta, func(e lemp.Entry) { entries = append(entries, e) })
		rows = byQuery(q.N(), entries)
	}
	for _, row := range rows {
		for j := range row {
			row[j].Probe = int(ref.ids[row[j].Probe])
		}
	}
	return rows
}

// check answers q through every entry point and holds each to naive:
// Row-Top-k at k, Above-θ at the smallest positive θ, and Above-θ at an
// exact θ, the value of one entry of the run before.
func check(t *testing.T, tag string, ref reference, q *lemp.Matrix, k int, rng *rand.Rand, eps ...entryPoint) {
	t.Helper()
	run := func(k int, theta float64) [][]lemp.Entry {
		want := ref.answer(q, k, theta)
		for _, ep := range eps {
			got := ep.answer(t, tag, q, k, theta)
			for i := range want {
				if !slices.Equal(got[i], want[i]) { // Entry's == counts ±0 alike
					t.Fatalf("%s: %s k=%d θ=%v: row %d\n got %v\nwant %v", tag, ep.name, k, theta, i, got[i], want[i])
				}
			}
		}
		return want
	}
	run(k, 0)
	all := slices.Concat(run(0, math.SmallestNonzeroFloat64)...)
	if len(all) > 0 {
		run(0, all[rng.Intn(len(all))].Value)
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
		check(t, tag, newReference(c.p, c.ids), c.q, c.k, rand.New(rand.NewSource(int64(n))), caseEntryPoints(t, c, n)...)
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
		check(t, fmt.Sprintf("seed %d", seed), newReference(c.p, c.ids), c.q, c.k, rand.New(rand.NewSource(seed)), caseEntryPoints(t, c, int(seed&0xffff))...)
	})
}

// TestDifferentialFixtures holds the format version 1, 2, 5 and 6 snapshot
// files, loaded as written, quantized and retuned, and unquantized at
// Parallelism 3, to naive over the catalog they restore.
func TestDifferentialFixtures(t *testing.T) {
	for _, name := range []string{"v1.snap", "v2.snap", "v5.snap", "v6.snap"} {
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
			check(t, name, newReference(p, ids), q, k, rng, eps...)
		}
	}
}

// TestTieContract pins which of four equal vectors under ids [7, 2, 5, 1]
// answers TopK(1): the smallest id, 1, naive's answer, from one index (its
// heap keeps the smaller id among equal values), from a server, and from
// MergeTopK over two indexes of two vectors each (index {5, 1} answers 1,
// index {7, 2} answers 2, and the merge keeps the lower id).
func TestTieContract(t *testing.T) {
	p, _ := lemp.MatrixFromVectors([][]float64{{1, 2}, {1, 2}, {1, 2}, {1, 2}})
	q, _ := lemp.MatrixFromVectors([][]float64{{3, 1}})
	ids := []int32{7, 2, 5, 1}
	ix, err := lemp.NewWithIDs(p, ids, lemp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := ix.Retrieve(context.Background(), q, lemp.TopK(1)); err != nil || res.TopK[0][0].Probe != 1 {
		t.Fatalf("one index: %v, %v; want probe 1", res, err)
	}
	srv, err := server.NewWithIDs(p, ids, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rows, _, err := srv.Sharded().CurrentView().TopKCtx(context.Background(), q, 1); err != nil || rows[0][0].Probe != 1 {
		t.Fatalf("server: %v, %v; want probe 1", rows, err)
	}
	var parts []lemp.TopKRows
	for _, half := range [][2]int{{0, 2}, {2, 4}} {
		hix, err := lemp.NewWithIDs(p.Slice(half[0], half[1]), ids[half[0]:half[1]], lemp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := hix.Retrieve(context.Background(), q, lemp.TopK(1))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, res.TopK)
	}
	if rows := lemp.MergeTopK(1, parts...); rows[0][0].Probe != 1 {
		t.Fatalf("MergeTopK of the halves: %v; want probe 1", rows)
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
		check(t, tag, newReference(p, ids), q, []int{1, 3, 10, len(live) + 5}[rng.Intn(4)], rng, eps...)
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
			if shIDs := sh.Indexes()[0].LiveIDs(); !slices.Equal(shIDs, ids) || sh.Epoch() != ix.Epoch() {
				t.Fatalf("%s: server live ids %v epoch %d, index %v %d", tag, shIDs, sh.Epoch(), ids, ix.Epoch())
			}
		}
		if checkAt(step) {
			eps := []entryPoint{retrieveEP("mutated index", ix, false)}
			if sh != nil {
				eps = append(eps, viewEP("server", sh))
			}
			checkOne(tag, live, 1+rng.Intn(3), eps...)
		}
	}
	kept = append(kept, version{roundTrip(t, ix, lemp.LoadOptions{}), live, steps})
	for _, v := range kept {
		checkOne(fmt.Sprintf("%s: the version of step %d, re-checked at the end", seq, v.step), v.live, 3, retrieveEP("kept", v.ix, false))
	}
	return checks, refused
}

// TestDifferentialMutations runs short mutation sequences from catalogs of
// up to 90 probes, a third of them under shuffled, sparse ids whose removed
// members are revived, each through an index and, unless the catalog starts
// empty, a server: 1 100 sequences with a server (200
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
		var sh *server.Sharded // a server refuses an empty catalog
		if n0 > 0 {
			srv, err := server.NewWithIDs(p, ids, server.Config{Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			sh = srv.Sharded()
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
