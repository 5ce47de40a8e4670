// This file lives under testdata, so the go tool does not build it with the
// package. It generated the compatibility fixtures beside it with a writer
// that still emitted format versions 1–5; TestReadsOlderFormats
// (compat_test.go) gives the command that ran it.

package snapshot

import (
	"bytes"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"lemp/internal/core"
	"lemp/internal/matrix"
)

var fixtureDir = flag.String("fixtures", "", "directory the compatibility fixtures are written into")

// skewedProbes returns r×n Gaussian probes with log-normal lengths, so
// several buckets form.
func skewedProbes(rng *rand.Rand, r, n int) *matrix.Matrix {
	p := matrix.New(r, n)
	p.FillRandom(rng)
	for i := 0; i < n; i++ {
		v, scale := p.Vec(i), math.Exp(0.9*rng.NormFloat64())
		for f := range v {
			v[f] *= scale
		}
	}
	return p
}

func TestGenerateFixtures(t *testing.T) {
	if *fixtureDir == "" {
		t.Skip("no -fixtures directory given")
	}
	write := func(name string, version byte, st *core.State, opts WriteOptions) {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteWith(&buf, st, opts); err != nil {
			t.Fatal(err)
		}
		if got := buf.Bytes()[8]; got != version {
			t.Fatalf("%s: format version %d, want %d", name, got, version)
		}
		if err := os.WriteFile(filepath.Join(*fixtureDir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Version 1: a plain index over column-numbered probes.
	plain, err := core.NewIndex(skewedProbes(rand.New(rand.NewSource(61)), 6, 120), core.Options{MinBucketSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	write("v1.snap", 1, plain.State(), WriteOptions{})

	// Version 2: TestMutatedSnapshotBytesPinned's mutated index.
	write("v2.snap", 2, mutatedIndex(t, core.AlgLI).State(), WriteOptions{})

	// Version 5: pretuned, quantized, with its sorted lists and a cluster
	// placement.
	rng := rand.New(rand.NewSource(65))
	full, err := core.NewIndex(skewedProbes(rng, 8, 120), core.Options{Algorithm: core.AlgLI, MinBucketSize: 10, SampleQueries: 8, TuneByCost: true, Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	q := matrix.New(8, 20)
	q.FillRandom(rng)
	if err := full.Pretune(q, core.Problem{K: 5}); err != nil {
		t.Fatal(err)
	}
	st := full.State()
	st.PlacementKind = "cluster"
	write("v5.snap", 5, st, WriteOptions{IncludeLists: true})
}
