package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lemp"
	"lemp/internal/naive"
)

// The legacy set internal/snapshot/testdata/legacy2.snap.0 and .1 is the
// pair of format version 6 files a server of two cluster-placed shards
// wrote before a server held one index (commit 201e2d1), with
// internal/snapshot/testdata/generate_legacy_test.go and this file's
// legacyCatalog and legacyBatch:
//
//	mkdir ../v6 && git archive 201e2d1 | tar -x -C ../v6
//	cp internal/server/legacy_test.go internal/snapshot/testdata/generate_legacy_test.go ../v6/internal/server/
//	go test -C ../v6 ./internal/server -run TestGenerateLegacySet -fixtures "$PWD/internal/snapshot/testdata"
//
// Its shards were built with Options.Quantize, pretuned, and then took one
// update batch, which removed the catalog's largest id: the files' AutoID
// mark stays above every live id.

// legacyR and legacyN shape the legacy set's catalog.
const legacyR, legacyN = 8, 240

// legacyCatalog returns the catalog the legacy set was built over: Gaussian
// directions with log-normal lengths, so that several buckets form.
func legacyCatalog() *lemp.Matrix {
	rng := rand.New(rand.NewSource(46))
	p := lemp.NewMatrix(legacyR, legacyN)
	for i := 0; i < legacyN; i++ {
		v, scale := p.Vec(i), math.Exp(0.9*rng.NormFloat64())
		for f := range v {
			v[f] = scale * rng.NormFloat64()
		}
	}
	return p
}

// legacyBatch is the one update batch the legacy set's server applied: a
// rewrite of id 3 and removals of id 10 and of the largest id.
func legacyBatch() []lemp.ProbeUpdate {
	vec := make([]float64, legacyR)
	for f := range vec {
		vec[f] = float64(f+1) / 2
	}
	return []lemp.ProbeUpdate{
		{Op: lemp.OpUpdate, ID: 3, Vec: vec},
		{Op: lemp.OpRemove, ID: 10},
		{Op: lemp.OpRemove, ID: legacyN - 1},
	}
}

// TestLegacySetRestoresAsOneIndex: the two files of the legacy set restore
// into one index whose Row-Top-k and Above-θ answers carry naive's ids and
// values over the catalog after the batch, and whose next AutoID add takes
// the set's mark, not one past the largest live id.
func TestLegacySetRestoresAsOneIndex(t *testing.T) {
	var readers []io.Reader
	for i := range 2 {
		f, err := os.Open(filepath.Join("..", "snapshot", "testdata", "legacy2.snap."+string(rune('0'+i))))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		readers = append(readers, f)
	}
	srv, err := NewFromSnapshot(readers, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ixs := srv.Sharded().Indexes(); len(ixs) != 1 || ixs[0].Pretuned() || !ixs[0].Options().Quantize {
		t.Fatalf("restored %d indexes (pretuned %v); want one unpretuned Quantize index", len(ixs), ixs[0].Pretuned())
	}

	// The expected catalog: legacyCatalog with legacyBatch applied, by id.
	cat, batch := legacyCatalog(), legacyBatch()
	var ids []int32
	var vecs [][]float64
	for id := range int32(legacyN) {
		switch id {
		case 3:
			vecs, ids = append(vecs, batch[0].Vec), append(ids, id)
		case 10, legacyN - 1:
		default:
			vecs, ids = append(vecs, cat.Vec(int(id))), append(ids, id)
		}
	}
	ref, err := lemp.MatrixFromVectors(vecs)
	if err != nil {
		t.Fatal(err)
	}
	q := lemp.NewMatrix(legacyR, 6)
	rng := rand.New(rand.NewSource(7))
	for i := 1; i < q.N(); i++ { // row 0 stays a zero query
		for f := range q.Vec(i) {
			q.Vec(i)[f] = rng.NormFloat64()
		}
	}
	toIDs := func(rows [][]lemp.Entry) [][]lemp.Entry {
		for _, row := range rows {
			for j := range row {
				row[j].Probe = int(ids[row[j].Probe])
			}
		}
		return rows
	}
	view := srv.Sharded().CurrentView()
	want, _ := naive.RowTopK(q, ref, 7)
	got, _, err := view.TopKCtx(context.Background(), q, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range toIDs(want) {
		if !slices.Equal(got[i], row) {
			t.Fatalf("top-7 row %d: got %v, want %v", i, got[i], row)
		}
	}
	const theta = 2.5
	wantAbove := make([][]lemp.Entry, q.N())
	naive.AboveTheta(q, ref, theta, func(e lemp.Entry) { wantAbove[e.Query] = append(wantAbove[e.Query], e) })
	for _, row := range wantAbove {
		lemp.SortEntries(row)
	}
	gotAbove, _, err := view.AboveThetaCtx(context.Background(), q, theta)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i, row := range toIDs(wantAbove) {
		if n += len(row); !slices.Equal(gotAbove[i], row) {
			t.Fatalf("above-θ row %d: got %v, want %v", i, gotAbove[i], row)
		}
	}
	if n == 0 {
		t.Fatal("above-θ answered no entry at all: θ too high to check anything")
	}

	res, err := srv.Sharded().Update([]lemp.ProbeUpdate{{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: make([]float64, legacyR)}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.IDs[0] != legacyN {
		t.Fatalf("next AutoID add took id %d, want the set's mark %d", res.IDs[0], legacyN)
	}
}

// TestLegacySetValidates: a set of several snapshot files is refused when it
// mixes dimensions or holds one live id in two files, naming the fault, and
// joined otherwise, ids kept; no file at all is refused too.
func TestLegacySetValidates(t *testing.T) {
	file := func(r int, ids []int32) io.Reader {
		t.Helper()
		p := lemp.NewMatrix(r, len(ids))
		for col := range ids {
			p.Vec(col)[0] = float64(col + 1)
		}
		ix, err := lemp.NewWithIDs(p, ids, lemp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	for _, tc := range []struct {
		name  string
		files []io.Reader
		want  string
	}{
		{"no file", nil, "no snapshot"},
		{"dimension mismatch", []io.Reader{file(4, []int32{0, 1}), file(3, []int32{2})}, "snapshot 1 has dimension 3, snapshot 0 has 4"},
		{"shared id", []io.Reader{file(4, []int32{0, 1, 2}), file(4, []int32{9}), file(4, []int32{2, 3})}, "duplicate probe id 2"},
	} {
		if _, err := NewFromSnapshot(tc.files, Config{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	srv, err := NewFromSnapshot([]io.Reader{file(4, []int32{0, 7}), file(4, []int32{2, 3})}, Config{})
	if err != nil {
		t.Fatalf("disjoint files refused: %v", err)
	}
	if got := srv.Sharded().Indexes()[0].LiveIDs(); !slices.Equal(got, []int32{0, 2, 3, 7}) {
		t.Fatalf("joined index holds ids %v, want [0 2 3 7]", got)
	}
}

// TestLegacySnapshotsServeLength: the committed LI fixtures — v5.snap alone
// (pretuned, with sorted lists, Quantize) and the legacy set — restore
// through NewFromSnapshot into one LENGTH index. After a Row-Top-k and an
// Above-θ request /stats reads no tuning work and the index holds no list;
// the rows carry internal/naive's ids and values over the files' live
// probes; and the next AutoID add takes the files' mark.
func TestLegacySnapshotsServeLength(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files []string
	}{
		{"v5 file", []string{"v5.snap"}},
		{"legacy set", []string{"legacy2.snap.0", "legacy2.snap.1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The reference: each file loaded by the library as it was written.
			var (
				raws [][]byte
				vecs [][]float64
				ids  []int32
				mark int32
			)
			for _, name := range tc.files {
				raw, err := os.ReadFile(filepath.Join("..", "snapshot", "testdata", name))
				if err != nil {
					t.Fatal(err)
				}
				ix, err := lemp.LoadIndex(bytes.NewReader(raw), lemp.LoadOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if ix.Options().Algorithm == lemp.AlgorithmL {
					t.Fatalf("%s was written under LENGTH; the test needs an LI file", name)
				}
				m, fileIDs := ix.LiveProbes()
				for col, id := range fileIDs {
					vecs, ids = append(vecs, m.Vec(col)), append(ids, id)
				}
				raws, mark = append(raws, raw), max(mark, ix.NextID())
			}
			live, err := lemp.MatrixFromVectors(vecs)
			if err != nil {
				t.Fatal(err)
			}

			readers := make([]io.Reader, len(raws))
			for i, raw := range raws {
				readers[i] = bytes.NewReader(raw)
			}
			srv, err := NewFromSnapshot(readers, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			q := lemp.NewMatrix(live.R(), 6)
			q.FillRandom(rand.New(rand.NewSource(9)))
			queries, err := json.Marshal([][]float64{q.Vec(0), q.Vec(1)})
			if err != nil {
				t.Fatal(err)
			}
			servesUntuned(t, tc.name, srv,
				fmt.Sprintf(`{"queries":%s,"k":5}`, queries), fmt.Sprintf(`{"queries":%s,"theta":0.5}`, queries))
			answersLikeNaive(t, tc.name, srv.Sharded(), live, ids, q)

			res, err := srv.Sharded().Update([]lemp.ProbeUpdate{{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: make([]float64, live.R())}}, -1)
			if err != nil {
				t.Fatal(err)
			}
			if res.IDs[0] != mark {
				t.Fatalf("next AutoID add took id %d, want the files' mark %d", res.IDs[0], mark)
			}
		})
	}
}
