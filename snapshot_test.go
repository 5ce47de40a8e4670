package lemp_test

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"lemp"
	"lemp/internal/data"
	"lemp/internal/naive"
	"lemp/internal/quant"
)

// TestSnapshotRoundTripSmoke is the snapshot subsystem's end-to-end
// property test: build an index on the Smoke profile, snapshot it, load it
// back, and require byte-identical RowTopK and AboveTheta results — loaded
// indexes must be indistinguishable from freshly built ones, down to the int8
// sidecars a default index builds lazily: none on arrival, their own after the
// first retrievals (where quant's kernels are assembly), none in the snapshot.
func TestSnapshotRoundTripSmoke(t *testing.T) {
	q, p := data.Smoke.Generate()
	ix, err := lemp.New(p, lemp.Options{Algorithm: lemp.AlgorithmLI, TuneByCost: true})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	t.Logf("snapshot: %d bytes for %d probes of dim %d", buf.Len(), p.N(), p.R())
	loaded, err := lemp.LoadIndex(bytes.NewReader(buf.Bytes()), lemp.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != ix.N() || loaded.R() != ix.R() || loaded.NumBuckets() != ix.NumBuckets() {
		t.Fatalf("loaded shape %d/%d/%d, want %d/%d/%d",
			loaded.N(), loaded.R(), loaded.NumBuckets(), ix.N(), ix.R(), ix.NumBuckets())
	}
	if ix.SidecarBytes() != 0 || loaded.SidecarBytes() != 0 {
		t.Fatalf("sidecars before any retrieval: %d bytes built, %d bytes loaded", ix.SidecarBytes(), loaded.SidecarBytes())
	}

	wantTop, _, err := rowTopK(ix, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	gotTop, _, err := rowTopK(loaded, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTop, wantTop) {
		t.Fatal("snapshot-loaded RowTopK differs from freshly built index")
	}

	theta := medianTopValue(wantTop)
	wantAbove, _, err := aboveTheta(ix, q, theta)
	if err != nil {
		t.Fatal(err)
	}
	gotAbove, _, err := aboveTheta(loaded, q, theta)
	if err != nil {
		t.Fatal(err)
	}
	lemp.SortEntries(wantAbove)
	lemp.SortEntries(gotAbove)
	if len(wantAbove) == 0 {
		t.Fatal("threshold produced no entries; test is vacuous")
	}
	if !reflect.DeepEqual(gotAbove, wantAbove) {
		t.Fatal("snapshot-loaded AboveTheta differs from freshly built index")
	}

	// Neither a retrieval's fit nor the sidecars it left behind are index
	// state: the snapshot of an index that is not pretuned does not depend on
	// what it has answered.
	if screens := quant.Accelerated(p.R()); (ix.SidecarBytes() > 0) != screens || (loaded.SidecarBytes() > 0) != screens {
		t.Fatalf("sidecars after the retrievals: %d bytes built, %d bytes loaded, int8 kernels in assembly: %v",
			ix.SidecarBytes(), loaded.SidecarBytes(), screens)
	}
	var after bytes.Buffer
	if err := ix.WriteSnapshot(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Bytes(), buf.Bytes()) {
		t.Fatal("snapshot bytes changed after retrievals on an index that is not pretuned")
	}
}

// TestSnapshotPretunedSkipsTuning checks the serving-restart contract: a
// pretuned index snapshot restores with tuning frozen, so retrieval reports
// zero tuning time, while LoadOptions.Retune opts back into per-call tuning.
func TestSnapshotPretunedSkipsTuning(t *testing.T) {
	q, p := data.Smoke.Generate()
	ix, err := lemp.New(p, lemp.Options{Algorithm: lemp.AlgorithmLI, TuneByCost: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.PretuneTopK(q.Head(32), 10); err != nil {
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
	if !loaded.Pretuned() {
		t.Fatal("pretuned flag lost across snapshot")
	}
	if _, st, err := rowTopK(loaded, q, 10); err != nil || st.TuneTime != 0 {
		t.Fatalf("pretuned loaded index re-tuned: TuneTime=%v err=%v", st.TuneTime, err)
	}

	retuned, err := lemp.LoadIndex(bytes.NewReader(buf.Bytes()), lemp.LoadOptions{Retune: true})
	if err != nil {
		t.Fatal(err)
	}
	if retuned.Pretuned() {
		t.Fatal("Retune did not unfreeze tuning")
	}
	if _, st, err := rowTopK(retuned, q, 10); err != nil || st.TuneTime == 0 {
		t.Fatalf("retuned index should tune per call: TuneTime=%v err=%v", st.TuneTime, err)
	}
}

func TestLoadIndexParallelismOverride(t *testing.T) {
	_, p := data.Smoke.Generate()
	ix, err := lemp.New(p, lemp.Options{Algorithm: lemp.AlgorithmLI, TuneByCost: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := lemp.LoadIndex(bytes.NewReader(buf.Bytes()), lemp.LoadOptions{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The override must not perturb results, only fan-out.
	q, _ := data.Smoke.Generate()
	want, _, err := rowTopK(ix, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rowTopK(loaded, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel loaded index differs from sequential original")
	}
}

// TestLoadIndexReadsPlacementFixture: the version-5 snapshot fixture, whose
// PLMT section names a cluster placement, loads through LoadIndex, which
// discards the name, and answers Row-Top-k as internal/naive does over its
// probes.
func TestLoadIndexReadsPlacementFixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("internal", "snapshot", "testdata", "v5.snap"))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := lemp.LoadIndex(bytes.NewReader(raw), lemp.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := lemp.NewMatrix(ix.R(), 8)
	q.FillRandom(rand.New(rand.NewSource(5)))
	got, _, err := rowTopK(ix, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := naive.RowTopK(q, ix.Probe(), 5)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("query %d: %d entries, naive %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			if g := got[i][j]; g.Probe != w.Probe || math.Abs(g.Value-w.Value) > 1e-9*(1+math.Abs(w.Value)) {
				t.Fatalf("query %d rank %d: %+v, naive %+v", i, j, g, w)
			}
		}
	}
}

func TestLoadIndexRejectsGarbage(t *testing.T) {
	if _, err := lemp.LoadIndex(bytes.NewReader([]byte("LEMPMAT1")), lemp.LoadOptions{}); err == nil {
		t.Error("matrix file accepted as index snapshot")
	}
	if _, err := lemp.LoadIndex(bytes.NewReader(nil), lemp.LoadOptions{}); err == nil {
		t.Error("empty input accepted as index snapshot")
	}
}

// medianTopValue picks a θ that yields a non-trivial Above-θ result set:
// the median of the per-query best values.
func medianTopValue(top lemp.TopKRows) float64 {
	var vals []float64
	for _, row := range top {
		if len(row) > 0 && row[0].Value > 0 {
			vals = append(vals, row[0].Value)
		}
	}
	if len(vals) == 0 {
		return math.Inf(1)
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}
