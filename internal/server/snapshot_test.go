package server

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"lemp"
)

// writeShardSnapshots snapshots every shard of a server into in-memory
// buffers, in shard order.
func writeShardSnapshots(t testing.TB, srv *Server) []*bytes.Buffer {
	t.Helper()
	var bufs []*bytes.Buffer
	err := srv.WriteSnapshotsWith(func(i, n int) (io.WriteCloser, error) {
		bufs = append(bufs, &bytes.Buffer{})
		return nopWriteCloser{bufs[i]}, nil
	}, lemp.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return bufs
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

func snapshotReaders(bufs []*bytes.Buffer) []io.Reader {
	rs := make([]io.Reader, len(bufs))
	for i, b := range bufs {
		rs[i] = bytes.NewReader(b.Bytes())
	}
	return rs
}

// TestSnapshotServerWithLists round-trips a warmed server through
// list-carrying snapshots (SLST section): the restored shards must arrive
// with their sorted-list indexes pre-built and answer identically.
func TestSnapshotServerWithLists(t *testing.T) {
	q, p := smokeMatrices(t)
	cfg := testConfig()
	cfg.Options.Algorithm = lemp.AlgorithmLI // its tuning pass builds the lists
	built, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up builds the lazy sorted lists the snapshot should carry.
	if _, _, err := built.Sharded().CurrentView().TopKCtx(context.Background(), q.Head(8), 5); err != nil {
		t.Fatal(err)
	}
	var bufs []*bytes.Buffer
	err = built.WriteSnapshotsWith(func(i, n int) (io.WriteCloser, error) {
		bufs = append(bufs, &bytes.Buffer{})
		return nopWriteCloser{bufs[i]}, nil
	}, lemp.SnapshotOptions{IncludeLists: true})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewFromSnapshot(snapshotReaders(bufs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	indexed := 0
	for _, ix := range restored.Sharded().Indexes() {
		for _, b := range ix.Buckets() {
			if b.Indexed {
				indexed++
			}
		}
	}
	if indexed == 0 {
		t.Fatal("restored shards carry no pre-built sorted lists")
	}
	wantRows, _, err := built.Sharded().CurrentView().TopKCtx(context.Background(), q.Head(16), 7)
	if err != nil {
		t.Fatal(err)
	}
	gotRows, _, err := restored.Sharded().CurrentView().TopKCtx(context.Background(), q.Head(16), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRows, wantRows) {
		t.Fatal("restored-with-lists server answers differently")
	}
}

// TestSnapshotServerMatchesBuiltServer round-trips a 4-shard server through
// snapshots and requires identical responses from both.
func TestSnapshotServerMatchesBuiltServer(t *testing.T) {
	q, p := smokeMatrices(t)
	built, err := New(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewFromSnapshot(snapshotReaders(writeShardSnapshots(t, built)), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Sharded().N() != built.Sharded().N() || restored.Sharded().NumShards() != built.Sharded().NumShards() {
		t.Fatalf("restored %d probes in %d shards, want %d in %d",
			restored.Sharded().N(), restored.Sharded().NumShards(), built.Sharded().N(), built.Sharded().NumShards())
	}
	tsBuilt := httptest.NewServer(built.Handler())
	defer tsBuilt.Close()
	tsRestored := httptest.NewServer(restored.Handler())
	defer tsRestored.Close()

	req := topKRequest{Queries: vecs(q, 0, 32), K: 10}
	var want, got queryResponse
	postJSON(t, tsBuilt.URL+"/v1/topk", req, &want)
	postJSON(t, tsRestored.URL+"/v1/topk", req, &got)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("snapshot-restored server returned different top-k results")
	}

	above := aboveRequest{Queries: vecs(q, 0, 32), Theta: 1.5}
	postJSON(t, tsBuilt.URL+"/v1/above", above, &want)
	postJSON(t, tsRestored.URL+"/v1/above", above, &got)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("snapshot-restored server returned different above-θ results")
	}
}

// TestSnapshotServerSkipsTuning is the restart-cost contract: a server
// restored from pretuned shard snapshots must never spend time in tuning —
// cumulative TuneTime stays zero across served traffic.
func TestSnapshotServerSkipsTuning(t *testing.T) {
	q, p := smokeMatrices(t)
	built, err := New(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Pretune every shard so the snapshots freeze fitted parameters (this
	// is what lemp-serve -save-snapshot does before writing).
	for _, ix := range built.Sharded().Indexes() {
		if err := ix.PretuneTopK(q.Head(32), 10); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := NewFromSnapshot(snapshotReaders(writeShardSnapshots(t, built)), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(restored.Handler())
	defer ts.Close()
	var resp queryResponse
	postJSON(t, ts.URL+"/v1/topk", topKRequest{Queries: vecs(q, 0, 64), K: 10}, &resp)
	postJSON(t, ts.URL+"/v1/above", aboveRequest{Queries: vecs(q, 64, 128), Theta: 1.5}, &resp)
	if st := restored.Sharded().CumulativeStats(); st.TuneTime != 0 {
		t.Fatalf("snapshot-restored server spent %v tuning; want 0", st.TuneTime)
	}
}

// failingDest errors partway through a snapshot write and records whether
// the caller aborted (discarding partial output) or closed (committing it).
type failingDest struct {
	n       int
	aborted bool
	closed  bool
}

func (f *failingDest) Write(p []byte) (int, error) {
	f.n += len(p)
	if f.n > 64 {
		return 0, io.ErrShortWrite
	}
	return len(p), nil
}

func (f *failingDest) Close() error { f.closed = true; return nil }
func (f *failingDest) Abort() error { f.aborted = true; return nil }

// TestWriteSnapshotsAbortsFailedWrites checks that a mid-stream write
// failure aborts the destination instead of closing it — a temp-file
// destination must never rename truncated output over a good snapshot.
func TestWriteSnapshotsAbortsFailedWrites(t *testing.T) {
	_, p := smokeMatrices(t)
	srv, err := New(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	dest := &failingDest{}
	err = srv.WriteSnapshotsWith(func(i, n int) (io.WriteCloser, error) { return dest, nil }, lemp.SnapshotOptions{})
	if err == nil {
		t.Fatal("failing write reported success")
	}
	if !dest.aborted || dest.closed {
		t.Fatalf("aborted=%v closed=%v; want aborted, not closed", dest.aborted, dest.closed)
	}
}

// TestNewShardedFromIndexesValidates: an index set from outside the program
// is refused when it is empty, mixes dimensions or names one live id in two
// shards — the error naming both shards and the id — and adopted otherwise.
func TestNewShardedFromIndexesValidates(t *testing.T) {
	_, p := smokeMatrices(t)
	build := func(probe *lemp.Matrix, ids []int32) *lemp.Index {
		t.Helper()
		ix, err := lemp.NewWithIDs(probe, ids, lemp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	ix := build(p, nil)
	r := p.R()
	for _, tc := range []struct {
		name string
		ixs  []*lemp.Index
		want string
	}{
		{"no indexes", nil, "no shard indexes"},
		{"dimension mismatch", []*lemp.Index{ix, build(lemp.NewMatrix(3, 5), nil)}, "shard 1 has dimension 3"},
		{"shared id", []*lemp.Index{
			build(lemp.NewMatrix(r, 3), []int32{0, 1, 2}),
			build(lemp.NewMatrix(r, 2), []int32{9, 10}),
			build(lemp.NewMatrix(r, 2), []int32{2, 3}),
		}, "probe id 2 appears in shards 0 and 2"},
	} {
		if _, err := NewShardedFromIndexes(tc.ixs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	sh, err := NewShardedFromIndexes([]*lemp.Index{ix})
	if err != nil {
		t.Fatal(err)
	}
	if sh.N() != p.N() || sh.R() != p.R() {
		t.Fatalf("shape %d/%d, want %d/%d", sh.N(), sh.R(), p.N(), p.R())
	}
}

// TestRouterOverlapDetection: shard indexes whose live ids overlap cannot
// be assembled — probe updates route by which shard holds an id, so an id
// held twice has no owner — while disjoint id sets assemble and every id
// routes to the shard that holds it.
func TestRouterOverlapDetection(t *testing.T) {
	r := 4
	build := func(ids []int32) *lemp.Index {
		t.Helper()
		ix, err := lemp.NewWithIDs(lemp.NewMatrix(r, len(ids)), ids, lemp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	_, err := NewShardedFromIndexes([]*lemp.Index{build([]int32{0, 1, 2}), build([]int32{2, 3})})
	if err == nil || !strings.Contains(err.Error(), "probe id 2 appears in shards 0 and 1") {
		t.Fatalf("overlapping shards: error %v, want one naming id 2 in shards 0 and 1", err)
	}
	sh, err := NewShardedFromIndexes([]*lemp.Index{build([]int32{0, 1}), build([]int32{2, 3})})
	if err != nil {
		t.Fatalf("disjoint shards refused: %v", err)
	}
	for id, shard := range []int{0, 0, 1, 1} {
		for i, ix := range sh.Indexes() {
			if got := ix.Has(int32(id)); got != (i == shard) {
				t.Fatalf("shard %d Has(%d) = %v, want %v", i, id, got, i == shard)
			}
		}
	}
}

func TestNewFromSnapshotRejectsCorrupt(t *testing.T) {
	_, p := smokeMatrices(t)
	built, err := New(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	bufs := writeShardSnapshots(t, built)
	raw := bufs[1].Bytes()
	raw[len(raw)/2] ^= 0x20
	if _, err := NewFromSnapshot(snapshotReaders(bufs), testConfig()); err == nil {
		t.Fatal("corrupt shard snapshot accepted")
	}
}

// TestRestoresPlacementFixture: the version-5 snapshot fixture, whose PLMT
// section names a cluster placement, restores through NewFromSnapshot both
// as-is and re-placed into two cluster shards, and each answers Row-Top-k
// as the fixture's index loaded alone does.
func TestRestoresPlacementFixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "snapshot", "testdata", "v5.snap"))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := lemp.LoadIndex(bytes.NewReader(raw), lemp.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := lemp.NewMatrix(ix.R(), 6)
	q.FillRandom(rand.New(rand.NewSource(5)))
	want := directTopK(t, ix, q, 5)
	for _, tc := range []struct {
		cfg    Config
		shards int
	}{
		{Config{}, 1},
		{Config{Shards: 2, Placement: "cluster"}, 2},
	} {
		srv, err := NewFromSnapshot([]io.Reader{bytes.NewReader(raw)}, tc.cfg)
		if err != nil {
			t.Fatalf("%+v: %v", tc.cfg, err)
		}
		if got := srv.Sharded().NumShards(); got != tc.shards {
			t.Fatalf("%+v: %d shards, want %d", tc.cfg, got, tc.shards)
		}
		got, _, err := srv.Sharded().CurrentView().TopKCtx(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		compareTopKValues(t, "restored fixture vs loaded index", got, want)
	}
}

// TestRejectsNonFiniteInputs covers the serving-path hardening: NaN/Inf θ
// and NaN/Inf query coordinates must all be rejected with 400 before
// touching retrieval or the cache.
func TestRejectsNonFiniteInputs(t *testing.T) {
	q, p := smokeMatrices(t)
	srv, err := New(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Raw bodies: JSON cannot represent NaN/Inf, so these exercise the
	// decoder rejection; the handler guard behind it is tested below.
	for _, body := range []string{
		`{"queries": [[1, 2]], "theta": NaN}`,
		`{"queries": [[1, 2]], "theta": Infinity}`,
		`{"queries": [[NaN, 2]], "theta": 1}`,
		`{"queries": [[1, 2]], "theta": 1e999}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/above", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}

	// The θ guard itself (reachable by any future non-JSON transport).
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		if (batchKey{theta: x}).check() == nil {
			t.Errorf("θ = %v passed the check", x)
		}
	}
	if (batchKey{theta: 0.5}).check() != nil || (batchKey{theta: math.MaxFloat64}).check() != nil {
		t.Error("the check refused a valid θ")
	}

	// A coordinate that overflows float64 is refused by the decoder, on a
	// body that is otherwise valid (right dimension, valid k): no non-finite
	// value ever reaches retrieval.
	for _, lit := range []string{"1e400", "-1e400"} {
		coords := []string{lit}
		for _, x := range q.Vec(0)[1:] {
			coords = append(coords, strconv.FormatFloat(x, 'g', -1, 64))
		}
		body := `{"queries":[[` + strings.Join(coords, ",") + `]],"k":3}`
		resp, err := http.Post(ts.URL+"/v1/topk", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "decoding request") {
			t.Errorf("coordinate %s: status %d %s, want a 400 decoding error", lit, resp.StatusCode, msg)
		}
	}
}
