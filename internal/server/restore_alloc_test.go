package server

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"lemp"
)

// TestRestoreOfAnotherAlgorithmBuildsOnce: one snapshot file written under
// AlgorithmLI with Options.Quantize restores as a LENGTH index, with every
// id and the AutoID mark, allocating less than the file's size plus the
// int8 sidecars plus a tenth: its catalog is read once and built once, in
// place (a full index of the file before the LENGTH build, or a copy of its
// probes, would cost the file's size again).
func TestRestoreOfAnotherAlgorithmBuildsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	const r, n = 50, 40000
	p := lemp.NewMatrix(r, n)
	for col := range n {
		v, scale := p.Vec(col), math.Exp(rng.NormFloat64())
		for f := range v {
			v[f] = scale * rng.NormFloat64()
		}
	}
	built, err := lemp.New(p, lemp.Options{Algorithm: lemp.AlgorithmLI, Quantize: true, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Remove the largest id, so the AutoID mark lies past every live id.
	if built, _, err = built.WithUpdates([]lemp.ProbeUpdate{{Op: lemp.OpRemove, ID: n - 1}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var ix *lemp.Index
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix, err = loadSnapshots([]io.Reader{bytes.NewReader(raw)}, lemp.LoadOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if o := ix.Options(); o.Algorithm != lemp.AlgorithmL || o.Phi != 0 || !o.Quantize || ix.Pretuned() {
		t.Fatalf("restored options %+v (pretuned %v), want LENGTH with the int8 screen", o, ix.Pretuned())
	}
	if ix.N() != n-1 || ix.Has(n-1) || !ix.Has(n-2) || ix.NextID() != built.NextID() {
		t.Fatalf("restored %d probes, next id %d; want %d probes without id %d, next id %d", ix.N(), ix.NextID(), n-1, n-1, built.NextID())
	}
	side := ix.SidecarBytes()
	if side == 0 {
		t.Fatal("restored index has no sidecars under Quantize")
	}
	if budget := (uint64(len(raw)) + uint64(side)) * 11 / 10; alloc > budget {
		t.Errorf("restoring a %d-byte LI file with %d sidecar bytes allocated %d bytes, over %d", len(raw), side, alloc, budget)
	}
	t.Logf("file %d bytes, sidecars %d, restore allocated %d", len(raw), side, alloc)
}
