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
	"lemp/internal/vecmath"
)

// writeShardSnapshots snapshots a server into in-memory buffers, one per
// file WriteSnapshotsWith opens.
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

// TestSnapshotServerFromPretunedLI: a snapshot the library wrote of a
// warmed, pretuned LI index, its tuning sample carried (TSMP section),
// restores into a server that drops the sample and the algorithm with it: it
// serves LENGTH, unpretuned, with no list in any bucket, and answers as the
// LI index does.
func TestSnapshotServerFromPretunedLI(t *testing.T) {
	q, p := smokeMatrices(t)
	ix, err := lemp.New(p, lemp.Options{Algorithm: lemp.AlgorithmLI, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.PretuneTopK(q.Head(16), 7); err != nil {
		t.Fatal(err)
	}
	want := directTopK(t, ix, q.Head(16), 7)
	if ix.ListBytes() == 0 {
		t.Fatal("the warmed LI index holds no sorted lists")
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("TSMP")) {
		t.Fatal("the pretuned index's snapshot carries no tuning sample")
	}
	restored, err := NewFromSnapshot([]io.Reader{&buf}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rix := restored.Sharded().current()
	if rix.Options().Algorithm != lemp.AlgorithmL || rix.Pretuned() || rix.ListBytes() != 0 {
		t.Fatalf("restored index runs %v, pretuned %v, with %d list bytes; want LENGTH, unpretuned, no list", rix.Options().Algorithm, rix.Pretuned(), rix.ListBytes())
	}
	got, _, err := restored.Sharded().CurrentView().TopKCtx(context.Background(), q.Head(16), 7)
	if err != nil {
		t.Fatal(err)
	}
	compareTopKValues(t, "restored LI snapshot vs the LI index", got, want)
	if rix.ListBytes() != 0 {
		t.Fatalf("a request built %d bytes of sorted lists", rix.ListBytes())
	}
}

// TestSnapshotServerMatchesBuiltServer round-trips a server through its
// snapshot and requires identical responses from both.
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
	if restored.Sharded().N() != built.Sharded().N() {
		t.Fatalf("restored %d probes, want %d", restored.Sharded().N(), built.Sharded().N())
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
// restored from its snapshot never spends time in tuning — cumulative
// TuneTime stays zero across served traffic.
func TestSnapshotServerSkipsTuning(t *testing.T) {
	q, p := smokeMatrices(t)
	built, err := New(p, testConfig())
	if err != nil {
		t.Fatal(err)
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

func TestNewFromSnapshotRejectsCorrupt(t *testing.T) {
	_, p := smokeMatrices(t)
	built, err := New(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	bufs := writeShardSnapshots(t, built)
	raw := bufs[0].Bytes()
	raw[len(raw)/2] ^= 0x20
	if _, err := NewFromSnapshot(snapshotReaders(bufs), testConfig()); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestRestoresPlacementFixture: the version-5 snapshot fixture, whose PLMT
// section names a cluster placement, restores through NewFromSnapshot and
// answers Row-Top-k as the fixture's index loaded alone does.
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
	srv, err := NewFromSnapshot([]io.Reader{bytes.NewReader(raw)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := srv.Sharded().CurrentView().TopKCtx(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	compareTopKValues(t, "restored fixture vs loaded index", got, want)
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

// TestMutatedServerSnapshotRoundTrip: a server, mutated, then snapshotted,
// restores into one index that answers as internal/naive does over the live
// probe set, as does the saving server. The snapshot carries no PLMT section.
func TestMutatedServerSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const r, n = 6, 90
	p := clusteredProbe(rng, r, n)
	cfg := Config{Options: lemp.Options{MinBucketSize: 6, Parallelism: 1}}
	srv, err := New(p.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, live := liveSet(srv.Sharded())
	for round := 0; round < 4; round++ {
		ops := randomOps(rng, r, &live)
		res, err := srv.Sharded().Update(ops, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			if op.Op == lemp.OpAdd {
				live = append(live, res.IDs[i])
			}
		}
	}
	liveP, ids := liveSet(srv.Sharded())
	q := lemp.NewMatrix(r, 5)
	for i := 0; i < 5; i++ {
		for vecmath.Norm(q.Vec(i)) == 0 { // probe-like, and not a zero vector
			copy(q.Vec(i), clusteredProbe(rng, r, 1).Vec(0))
		}
	}
	answersLikeNaive(t, "saving server", srv.Sharded(), liveP, ids, q)

	bufs := writeShardSnapshots(t, srv)
	if len(bufs) != 1 || bytes.Contains(bufs[0].Bytes(), []byte("PLMT")) {
		t.Fatalf("%d snapshot files, or a PLMT section; want one file without", len(bufs))
	}
	restored, err := NewFromSnapshot(snapshotReaders(bufs), Config{Options: lemp.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	answersLikeNaive(t, "restored", restored.Sharded(), liveP, ids, q)
}

// TestRestoredServerContinuesEpoch: the epoch is the index's, which its
// snapshot carries, so a server restored from the snapshot of an index at
// epoch E serves at E — /healthz reads it — and its next batch creates E+1.
func TestRestoredServerContinuesEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const r, n, epoch = 6, 40, 3
	ix, err := lemp.New(epochProbe(rng, r, n), lemp.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < epoch; e++ {
		add := []lemp.ProbeUpdate{{Op: lemp.OpAdd, ID: lemp.AutoID, Vec: epochProbe(rng, r, 1).Vec(0)}}
		if ix, _, err = ix.WithUpdates(add); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	srv, err := NewFromSnapshot([]io.Reader{&buf}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if got, _ := getHealthz(t, ts.URL); got != epoch {
		t.Fatalf("/healthz epoch %d after restoring a snapshot at epoch %d", got, epoch)
	}
	status, out := postBody(t, ts.URL+"/v1/update", `{"updates":[{"op":"remove","id":0}]}`)
	if status != http.StatusOK {
		t.Fatalf("update status %d: %v", status, out)
	}
	if got := out["epoch"].(float64); got != epoch+1 {
		t.Fatalf("the first batch after the restore created epoch %v, want %d", got, epoch+1)
	}
}
