package lemp_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lemp"
	"lemp/internal/server"
)

// fig1 returns the paper's running example (Fig. 1): user and movie factor
// matrices whose product contains known entries.
func fig1(t *testing.T) (q, p *lemp.Matrix) {
	t.Helper()
	q, err := lemp.MatrixFromVectors([][]float64{
		{3.2, -0.4}, {3.1, -0.2}, {0, 1.8}, {-0.4, 1.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err = lemp.MatrixFromVectors([][]float64{
		{1.6, 0.6}, {1.3, 0.8}, {0.7, 2.7}, {1, 2.8}, {0.4, 2.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return q, p
}

// rowTopK and aboveTheta are Retrieve under a background context with the
// mode option alone: the shape most tests call it in.
func rowTopK(ix *lemp.Index, q *lemp.Matrix, k int) (lemp.TopKRows, lemp.Stats, error) {
	res, err := ix.Retrieve(context.Background(), q, lemp.TopK(k))
	if err != nil {
		return nil, lemp.Stats{}, err
	}
	return res.TopK, res.Stats, nil
}

func aboveTheta(ix *lemp.Index, q *lemp.Matrix, theta float64) ([]lemp.Entry, lemp.Stats, error) {
	res, err := ix.Retrieve(context.Background(), q, lemp.AboveTheta(theta))
	if err != nil {
		return nil, lemp.Stats{}, err
	}
	return res.Entries, res.Stats, nil
}

func TestQuickstartAboveTheta(t *testing.T) {
	q, p := fig1(t)
	index, err := lemp.New(p, lemp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	entries, st, err := aboveTheta(index, q, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 { // the bold entries of Fig. 1b
		t.Fatalf("got %d entries, want 10", len(entries))
	}
	if st.Results != 10 || st.Queries != 4 {
		t.Errorf("stats %+v", st)
	}
	// Spot-check the largest: Charlie–Amelie = 1.8·2.8 = 5.04 (the paper's
	// Fig. 1b prints it rounded to 5.0).
	found := false
	for _, e := range entries {
		if e.Query == 2 && e.Probe == 3 {
			found = true
			if math.Abs(e.Value-5.04) > 1e-12 {
				t.Errorf("Charlie-Amelie = %g, want 5.04", e.Value)
			}
		}
	}
	if !found {
		t.Error("missing Charlie-Amelie entry")
	}
}

func TestQuickstartRowTopK(t *testing.T) {
	q, p := fig1(t)
	index, err := lemp.New(p, lemp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	top, _, err := rowTopK(index, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 1b: Adam→Die Hard, Bob→Die Hard, Charlie→Amelie, Dennis→Twilight(4.9)
	wantProbe := []int{0, 0, 3, 3} // Dennis: Amelie 4.9 vs Twilight 4.9 tie? compute: Dennis=(-0.4,1.9): Twilight=0.7*-0.4+2.7*1.9=4.85; Amelie=-0.4+5.32=4.92 → Amelie.
	for u, want := range wantProbe {
		if top[u][0].Probe != want {
			t.Errorf("user %d top-1 probe %d want %d (value %g)", u, top[u][0].Probe, want, top[u][0].Value)
		}
	}
}

func TestAboveThetaFuncStreams(t *testing.T) {
	q, p := fig1(t)
	index, _ := lemp.New(p, lemp.Options{})
	var n int
	res, err := index.Retrieve(context.Background(), q, lemp.AboveTheta(3.0), lemp.Stream(func(lemp.Entry) { n++ }))
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || int(res.Stats.Results) != 10 || res.Entries != nil {
		t.Errorf("streamed %d entries, stats %d, %d entries materialized", n, res.Stats.Results, len(res.Entries))
	}
}

// TestAllAlgorithmsThroughPublicAPI: an index built under each algorithm
// answers 40 of its own 500 Gaussian probes as the differential harness's
// reference does (differential_test.go).
func TestAllAlgorithmsThroughPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := lemp.NewMatrix(6, 500)
	for i := 0; i < p.N(); i++ {
		copy(p.Vec(i), randVec(rng, 6))
	}
	var eps []entryPoint
	for _, alg := range allAlgorithms {
		ix, err := lemp.New(p, lemp.Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("New(%v): %v", alg, err)
		}
		eps = append(eps, retrieveEP(alg.String(), ix, false))
	}
	check(t, "public API", newReference(p, nil), p.Head(40), 10, rng, eps...)
}

// TestCallerMatrixReusable: lemp.New, lemp.NewWithIDs and server.New copy
// the probes, so overwriting the caller's matrix afterwards changes no
// answer — nor what a snapshot or a compaction reads back out of the index:
// each still returns naive's over the catalog as it was.
func TestCallerMatrixReusable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p, q := lemp.NewMatrix(5, 200), lemp.NewMatrix(5, 6)
	for _, m := range []*lemp.Matrix{p, q} {
		for i := 0; i < m.N(); i++ {
			copy(m.Vec(i), randVec(rng, 5))
		}
	}
	ids := make([]int32, p.N())
	for col := range ids {
		ids[col] = int32(2*p.N() - col)
	}
	orig := p.Clone()
	ix, err := lemp.New(p, lemp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	withIDs, err := lemp.NewWithIDs(p, ids, lemp.Options{Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithIDs(p, ids, server.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.N(); i++ {
		copy(p.Vec(i), randVec(rng, 5))
	}
	check(t, "caller matrix overwritten", newReference(orig, ids), q, 10, rng,
		retrieveEP("NewWithIDs", withIDs, false), viewEP("server.NewWithIDs", srv.Sharded()), httpEP("server.NewWithIDs", srv))
	compacted, _, err := ix.WithUpdates([]lemp.ProbeUpdate{{Op: lemp.OpRemove, ID: 0}, {Op: lemp.OpAdd, ID: 0, Vec: orig.Vec(0)}})
	if err != nil {
		t.Fatal(err)
	}
	compacted.Compact()
	check(t, "caller matrix overwritten", newReference(orig, nil), q, 10, rng, retrieveEP("New", ix, false),
		retrieveEP("snapshot", roundTrip(t, ix, lemp.SnapshotOptions{}, lemp.LoadOptions{}), false), retrieveEP("compacted", compacted, false))
}

func TestParseAlgorithm(t *testing.T) {
	a, err := lemp.ParseAlgorithm("li")
	if err != nil || a != lemp.AlgorithmLI {
		t.Errorf("ParseAlgorithm(li) = %v, %v", a, err)
	}
	if _, err := lemp.ParseAlgorithm("nope"); err == nil {
		t.Error("bogus algorithm accepted")
	}
	// The paper's other LEMP-X variants are experiment baselines, not
	// serving algorithms: naming one says where they run.
	for _, name := range []string{"TA", "tree", "L2AP", "blsh"} {
		if _, err := lemp.ParseAlgorithm(name); err == nil || !strings.Contains(err.Error(), "lemp-bench -experiment") {
			t.Errorf("ParseAlgorithm(%s) = %v, want the lemp-bench pointer", name, err)
		}
	}
}

func TestIndexAccessors(t *testing.T) {
	_, p := fig1(t)
	ix, _ := lemp.New(p, lemp.Options{})
	if ix.N() != 5 || ix.R() != 2 {
		t.Errorf("N=%d R=%d", ix.N(), ix.R())
	}
	if ix.NumBuckets() < 1 {
		t.Errorf("buckets %d", ix.NumBuckets())
	}
	if ix.PrepTime() < 0 {
		t.Errorf("prep time %v", ix.PrepTime())
	}
}

func TestMatrixHelpersAndLoadMatrix(t *testing.T) {
	m := lemp.NewMatrix(3, 2)
	copy(m.Vec(0), []float64{1, 2, 3})
	copy(m.Vec(1), []float64{4, 5, 6})

	dir := t.TempDir()
	binPath := filepath.Join(dir, "m.bin")
	csvPath := filepath.Join(dir, "m.csv")

	var bin bytes.Buffer
	if err := lemp.WriteMatrix(&bin, m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := lemp.WriteMatrixCSV(&csv, m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(csvPath, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{binPath, csvPath} {
		got, err := lemp.LoadMatrix(path)
		if err != nil {
			t.Fatalf("LoadMatrix(%s): %v", path, err)
		}
		if got.N() != 2 || got.R() != 3 || got.Vec(1)[2] != 6 {
			t.Errorf("%s: wrong contents", path)
		}
	}

	// A read error is returned; only an empty file reads as an empty matrix.
	if _, err := lemp.LoadMatrix(dir); err == nil {
		t.Error("LoadMatrix of a directory succeeded")
	}
	emptyPath := filepath.Join(dir, "empty")
	if err := os.WriteFile(emptyPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := lemp.LoadMatrix(emptyPath); err != nil || got.N() != 0 {
		t.Errorf("LoadMatrix of an empty file: %v, %v", got, err)
	}

	if _, err := lemp.MatrixFromData(2, 2, []float64{1, 2, 3}); err == nil {
		t.Error("bad FromData accepted")
	}
	rt, err := lemp.ReadMatrix(&bin)
	if err == nil && rt.N() != 2 {
		t.Error("ReadMatrix after drain should fail or be empty")
	}
}

// TestParallelOptionsThroughPublicAPI: Options.Parallelism and
// WithParallelism answer as the differential harness's reference does.
func TestParallelOptionsThroughPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	p, q := lemp.NewMatrix(6, 300), lemp.NewMatrix(6, 80)
	for _, m := range []*lemp.Matrix{p, q} {
		for i := 0; i < m.N(); i++ {
			copy(m.Vec(i), randVec(rng, 6))
		}
	}
	serial, err := lemp.New(p, lemp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := lemp.New(p, lemp.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	check(t, "parallel options", newReference(p, nil), q, 3, rng,
		retrieveEP("Options.Parallelism 4", parallel, false), retrieveEP("WithParallelism 4", serial, false, lemp.WithParallelism(4)))
}
