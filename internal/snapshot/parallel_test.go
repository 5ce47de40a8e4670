package snapshot

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"lemp/internal/core"
	"lemp/internal/matrix"
)

// stateBytes serializes ix's state, lists included, with the Parallelism
// option it records set to 1: the option is the one thing two builds at
// different Parallelism may write differently.
func stateBytes(t *testing.T, ix *core.Index) []byte {
	t.Helper()
	st := ix.State()
	st.Opts.Parallelism = 1
	var buf bytes.Buffer
	if err := WriteWith(&buf, st, WriteOptions{IncludeLists: true}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStateIndependentOfParallelism: a build, a restore and a Compact spread
// their work over Options.Parallelism goroutines, and what they produce is
// the same, byte for byte, at Parallelism 1 and 4. The catalog is wide
// enough that the per-column steps split into four runs, its ids are
// shuffled, its buckets quantized and its pretuned lists stored, so every
// spread step runs: lengths, bucket layout, row copy, sidecars, and the
// restore's bucket and list checks. Run it under -race.
func TestStateIndependentOfParallelism(t *testing.T) {
	const r, n = 6, 4*4096 + 123
	rng := rand.New(rand.NewSource(46))
	p := matrix.New(r, n)
	ids := make([]int32, n)
	for col, k := range rng.Perm(n) {
		v, scale := p.Vec(col), math.Exp(0.9*rng.NormFloat64())
		for f := range v {
			v[f] = scale * rng.NormFloat64()
		}
		ids[col] = int32(2*k + 1)
	}
	sample := matrix.New(r, 16)
	sample.FillRandom(rng)
	batch := []core.ProbeUpdate{
		{Op: core.OpRemove, ID: ids[0]},
		{Op: core.OpUpdate, ID: ids[1], Vec: p.Vec(2)},
		{Op: core.OpAdd, ID: core.AutoID, Vec: p.Vec(3)},
	}
	var built, restored, compacted [][]byte
	for _, par := range []int{1, 4} {
		opts := core.Options{Parallelism: par, MinBucketSize: 40, SampleQueries: 8, TuneByCost: true, Quantize: true}
		ix, err := core.NewIndexWithIDs(p, ids, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Pretune(sample, core.Problem{K: 5}); err != nil {
			t.Fatal(err)
		}
		raw := stateBytes(t, ix)
		built = append(built, raw)

		st, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		st.Opts.Parallelism = par
		back, err := core.FromState(st)
		if err != nil {
			t.Fatal(err)
		}
		restored = append(restored, stateBytes(t, back))

		if _, err := back.Apply(batch); err != nil {
			t.Fatal(err)
		}
		back.Compact()
		compacted = append(compacted, stateBytes(t, back))
	}
	for _, c := range []struct {
		what string
		raw  [][]byte
	}{{"build", built}, {"restore", restored}, {"Compact", compacted}} {
		if !bytes.Equal(c.raw[0], c.raw[1]) {
			t.Errorf("%s: state bytes at Parallelism 4 differ from those at 1", c.what)
		}
	}
	if !bytes.Equal(built[0], restored[0]) {
		t.Error("a restore's state differs from the build's it restored")
	}
	if !bytes.Contains(built[0], []byte("SLST")) {
		t.Error("the pretuned build stored no sorted list: the restore's list check went unexercised")
	}
}
