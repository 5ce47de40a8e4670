package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// applyFixture is an index of n probes at r = 50 that already carries
// `overlay` added vectors (in one batch), and a driver of the benchmark's
// update batch: eight ops — four adds, two rewrites, two removes — on ids
// drawn from the whole live set. A pretuned fixture is an LI index fitted
// by Pretune (TuneByCost) on 32 sample queries before the overlay lands.
type applyFixture struct {
	ix   *Index
	rng  *rand.Rand
	live []int32
}

const applyCostR = 50

func newApplyFixture(tb testing.TB, n, overlay int, pretuned bool) *applyFixture {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n + overlay)))
	opts := Options{}
	if pretuned {
		opts = Options{Algorithm: AlgLI, TuneByCost: true}
	}
	ix, err := NewIndex(genMatrix(rng, n, applyCostR, 0.4, 1, false, 0, 0), opts)
	if err != nil {
		tb.Fatal(err)
	}
	if pretuned {
		if err := ix.Pretune(genMatrix(rng, 32, applyCostR, 0.4, 1, false, 0, 0), Problem{K: 10}); err != nil {
			tb.Fatal(err)
		}
	}
	f := &applyFixture{ix: ix, rng: rng, live: ix.LiveIDs()}
	if overlay > 0 {
		ups := make([]ProbeUpdate, overlay)
		for i := range ups {
			ups[i] = ProbeUpdate{Op: OpAdd, ID: AutoID, Vec: randVec(rng, applyCostR)}
		}
		ids, err := ix.Apply(ups)
		if err != nil {
			tb.Fatal(err)
		}
		f.live = append(f.live, ids...)
	}
	return f
}

// step derives the next version through WithUpdates, as a serving layer does.
func (f *applyFixture) step(tb testing.TB) {
	ups := make([]ProbeUpdate, 0, 8)
	for i := 0; i < 4; i++ {
		ups = append(ups, ProbeUpdate{Op: OpAdd, ID: AutoID, Vec: randVec(f.rng, applyCostR)})
	}
	for i := 0; i < 4; i++ { // distinct live ids: two rewritten, two removed
		j := i + f.rng.Intn(len(f.live)-i)
		f.live[i], f.live[j] = f.live[j], f.live[i]
	}
	for _, id := range f.live[:2] {
		ups = append(ups, ProbeUpdate{Op: OpUpdate, ID: id, Vec: randVec(f.rng, applyCostR)})
	}
	for _, id := range f.live[2:4] {
		ups = append(ups, ProbeUpdate{Op: OpRemove, ID: id})
	}
	next, ids, err := f.ix.WithUpdates(ups)
	if err != nil {
		tb.Fatal(err)
	}
	f.ix = next
	f.live = append(f.live, ids[:4]...)
	last := len(f.live) - 1
	f.live[2], f.live[3] = f.live[last], f.live[last-1] // the removed two
	f.live = f.live[:last-1]
}

// applyCost measures one batch on the fixture, amortised over 256
// consecutive ones so that run merges are part of it: bytes and objects.
func applyCost(t *testing.T, n, overlay int, pretuned bool) (bytes, objects float64) {
	const batches = 256
	f := newApplyFixture(t, n, overlay, pretuned)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		f.step(t)
	}
	runtime.ReadMemStats(&after)
	bytes = float64(after.TotalAlloc-before.TotalAlloc) / batches
	f = newApplyFixture(t, n, overlay, pretuned)
	objects = testing.AllocsPerRun(batches-1, func() { f.step(t) })
	t.Logf("n=%d overlay=%d pretuned=%v: %.0f bytes, %.0f objects per batch", n, overlay, pretuned, bytes, objects)
	return bytes, objects
}

// applyCostCeiling bounds one eight-op batch at r = 50, merges amortised.
// The measured cost is 44–49 KB in 48 objects, the fixture's own six vectors
// included; the structure this one replaced measures 690 KB to 4.5 MB in
// 107 to 173 objects here.
const (
	applyCostCeilingBytes   = 96 << 10
	applyCostCeilingObjects = 100
)

// TestApplyCostIsBatchBound holds the delta layer's complexity, not a ratio
// on one fixture: what deriving an updated index allocates depends on the
// batch, not on how many probes the index holds nor on how large its
// overlay already is — on a pretuned index too, whose batches tune nothing.
func TestApplyCostIsBatchBound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 50 000-probe indexes")
	}
	for _, pretuned := range []bool{false, true} {
		within := func(what string, a, b, factor float64) {
			t.Helper()
			if a > b*factor || b > a*factor {
				t.Errorf("pretuned=%v: %s: %.0f vs %.0f, more than %.2fx apart", pretuned, what, a, b, factor)
			}
		}
		smallB, smallO := applyCost(t, 5000, 0, pretuned)
		largeB, largeO := applyCost(t, 50000, 0, pretuned)
		within("bytes per batch at n = 5 000 and 50 000", smallB, largeB, 1.25)
		within("objects per batch at n = 5 000 and 50 000", smallO, largeO, 1.25)
		deepB, deepO := applyCost(t, 50000, 4096, pretuned)
		within("bytes per batch over an overlay of 0 and of 4 096", largeB, deepB, 1.5)
		within("objects per batch over an overlay of 0 and of 4 096", largeO, deepO, 1.5)
		for _, c := range []struct{ bytes, objects float64 }{{smallB, smallO}, {largeB, largeO}, {deepB, deepO}} {
			if c.bytes > applyCostCeilingBytes || c.objects > applyCostCeilingObjects {
				t.Errorf("pretuned=%v: one batch allocates %.0f bytes in %.0f objects, ceiling %d in %d",
					pretuned, c.bytes, c.objects, applyCostCeilingBytes, applyCostCeilingObjects)
			}
		}
	}
}

// BenchmarkApplyBatch times one eight-op WithUpdates by index size and by
// the overlay the batch lands on: flat in both.
func BenchmarkApplyBatch(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		for _, overlay := range []int{0, 512, 8192} {
			b.Run(fmt.Sprintf("n=%d/overlay=%d", n, overlay), func(b *testing.B) {
				f := newApplyFixture(b, n, overlay, false)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.step(b)
				}
			})
		}
	}
}
