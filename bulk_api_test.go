package lemp_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"lemp"
)

// The public bulk wrappers must round-trip through the result file and
// agree with Retrieve on every row.
func TestBulkPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	p := lemp.NewMatrix(8, 300)
	p.FillRandom(rng)
	q := lemp.NewMatrix(8, 64)
	q.FillRandom(rng)
	index, err := lemp.New(p, lemp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	dir := t.TempDir()
	out := filepath.Join(dir, "api.lempbrs")
	st, err := index.BulkTopK(context.Background(), lemp.BulkQueries(q), out, k, lemp.BulkOptions{
		PanelRows: 16, Checkpoint: filepath.Join(dir, "api.bulkck"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != q.N() || st.Panels != 4 {
		t.Fatalf("stats: %+v", st)
	}
	res, err := lemp.ReadBulkResults(out)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := rowTopK(index, q, k)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range want {
		// Both sides in the file's canonical order: value desc, probe asc.
		sortTopK(row)
		if !reflect.DeepEqual(res.Rows[i], row) {
			t.Fatalf("row %d: bulk %v retrieve %v", i, res.Rows[i], row)
		}
	}

	aboveOut := filepath.Join(dir, "above.lempbrs")
	if _, err := index.BulkAboveTheta(context.Background(), lemp.BulkQueries(q), aboveOut, 1.5, lemp.BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := lemp.ReadBulkResults(aboveOut); err != nil {
		t.Fatal(err)
	}
}

// sortTopK reorders a Retrieve row into the bulk file's canonical order
// (value desc, probe asc) — Retrieve breaks value ties arbitrarily.
func sortTopK(row []lemp.Entry) {
	for i := 1; i < len(row); i++ {
		for j := i; j > 0; j-- {
			a, b := row[j-1], row[j]
			if a.Value > b.Value || (a.Value == b.Value && a.Probe <= b.Probe) {
				break
			}
			row[j-1], row[j] = b, a
		}
	}
}
