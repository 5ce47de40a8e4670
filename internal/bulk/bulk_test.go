package bulk

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lemp/internal/core"
	"lemp/internal/matrix"
	"lemp/internal/retrieval"
)

func bulkFixture(t *testing.T, m, n, r int, seed int64) (*core.Index, *matrix.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := matrix.New(r, n)
	p.FillRandom(rng)
	q := matrix.New(r, m)
	q.FillRandom(rng)
	if m > 3 {
		// A zero query exercises the empty-row path through the writer.
		for f := 0; f < r; f++ {
			q.Vec(3)[f] = 0
		}
	}
	ix, err := core.NewIndex(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ix, q
}

// Bulk Row-Top-k must reproduce the serving path exactly: same entry sets,
// same values bit-for-bit, rows in canonical order.
func TestBulkTopKMatchesServing(t *testing.T) {
	ix, q := bulkFixture(t, 137, 400, 12, 21)
	const k = 5
	out := filepath.Join(t.TempDir(), "topk.lempbrs")
	st, err := Run(context.Background(), ix, Matrix{M: q}, out, Config{
		K: k, PanelRows: 16, Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != q.N() || st.Panels != (q.N()+15)/16 || st.ResumedPanels != 0 {
		t.Fatalf("stats: %+v", st)
	}
	res, err := ReadResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeTopK || res.K != k || res.R != q.R() || len(res.Rows) != q.N() {
		t.Fatalf("result header: %+v (rows %d)", res, len(res.Rows))
	}
	want, _, err := ix.Retrieve(context.Background(), q, core.Problem{K: k}, nil, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range want {
		CanonicalizeTopK(row)
		if !reflect.DeepEqual(res.Rows[i], row) {
			t.Fatalf("row %d: bulk %v serving %v", i, res.Rows[i], row)
		}
	}
}

// Bulk Above-θ must reproduce the serving path's entry sets exactly.
func TestBulkAboveMatchesServing(t *testing.T) {
	ix, q := bulkFixture(t, 90, 350, 10, 23)
	const theta = 2.0
	out := filepath.Join(t.TempDir(), "above.lempbrs")
	_, err := Run(context.Background(), ix, Matrix{M: q}, out, Config{
		Theta: theta, PanelRows: 13, Parallelism: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReadResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeAbove || res.Theta != theta {
		t.Fatalf("result header: %+v", res)
	}
	want := make(retrieval.TopK, q.N())
	if _, _, err := ix.Retrieve(context.Background(), q, core.Problem{Theta: theta}, func(e retrieval.Entry) {
		want[e.Query] = append(want[e.Query], e)
	}, core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, row := range want {
		canonicalizeAbove(row)
		if len(row) == 0 && len(res.Rows[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(res.Rows[i], row) {
			t.Fatalf("row %d: bulk %v serving %v", i, res.Rows[i], row)
		}
		total += len(row)
	}
	if total == 0 {
		t.Fatal("fixture produced no Above-θ entries; lower theta")
	}
}

// A job fed from a LEMPMAT1 file on disk must write the same bytes as one
// fed from memory, and two identical runs must be byte-identical.
func TestBulkFileSourceByteIdentical(t *testing.T) {
	ix, q := bulkFixture(t, 75, 300, 8, 29)
	dir := t.TempDir()
	qPath := filepath.Join(dir, "queries.lempmat")
	f, err := os.Create(qPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := matrix.WriteBinary(f, q); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 4, PanelRows: 11, Parallelism: 4}

	memOut := filepath.Join(dir, "mem.lempbrs")
	if _, err := Run(context.Background(), ix, Matrix{M: q}, memOut, cfg); err != nil {
		t.Fatal(err)
	}
	pr, err := matrix.OpenPanelReader(qPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	fileOut := filepath.Join(dir, "file.lempbrs")
	if _, err := Run(context.Background(), ix, pr, fileOut, cfg); err != nil {
		t.Fatal(err)
	}
	memBytes, err := os.ReadFile(memOut)
	if err != nil {
		t.Fatal(err)
	}
	fileBytes, err := os.ReadFile(fileOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memBytes, fileBytes) {
		t.Fatal("file-sourced job bytes differ from memory-sourced job")
	}
}

// Zero queries still produce a valid, readable result file.
func TestBulkEmptyQueries(t *testing.T) {
	ix, _ := bulkFixture(t, 4, 60, 6, 31)
	q := matrix.New(6, 0)
	out := filepath.Join(t.TempDir(), "empty.lempbrs")
	st, err := Run(context.Background(), ix, Matrix{M: q}, out, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 0 || st.Panels != 0 {
		t.Fatalf("stats: %+v", st)
	}
	res, err := ReadResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
}

func TestBulkConfigValidation(t *testing.T) {
	ix, q := bulkFixture(t, 8, 40, 6, 33)
	out := filepath.Join(t.TempDir(), "out.lempbrs")
	src := Matrix{M: q}
	bad := []Config{
		{},                      // no mode
		{K: 3, Theta: 1.5},      // both modes
		{K: -1},                 // negative k
		{K: 3, PanelRows: -4},   // bad panel size
		{K: 3, Parallelism: -1}, // bad parallelism
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), ix, src, out, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := Run(context.Background(), ix, src, "", Config{K: 3}); err == nil {
		t.Error("empty output path accepted")
	}
	wrongDim := matrix.New(q.R()+1, 5)
	if _, err := Run(context.Background(), ix, Matrix{M: wrongDim}, out, Config{K: 3}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}
