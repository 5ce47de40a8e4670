package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"lemp/internal/quant"
	"lemp/internal/retrieval"
	"lemp/internal/vecmath"
)

// TestAutoScreenMatchesUnscreened is the contract of the automatic int8
// screen (sidecarFor): an index built with default options answers byte for
// byte like the same index with the screen forced off and like one built with
// Options.Quantize, for the L/C/I family, both problems, with and without
// tombstones + delta buckets. Sidecars are built on first screened use under
// either option — none before the first call; after it, some on the Quantize
// index, and on the default one where quant's kernels are assembly, none ever
// where they are not (so under -tags purego all three arms must still agree,
// with the default arm screening nothing) — and whether a pair is screened does not
// depend on the calls before it: a fresh index's first call and a repeat of
// it report equal counters.
func TestAutoScreenMatchesUnscreened(t *testing.T) {
	const r = 24 // one 16-byte chunk plus an overlapped tail in the assembly
	rng := rand.New(rand.NewSource(2001))
	p := genMatrix(rng, 900, r, 0.5, 1, false, 2, 4)
	q := genMatrix(rng, 40, r, 0.5, 1, false, 1, 0)
	theta, _ := safeTheta(t, q, p, 400)
	var ups []ProbeUpdate
	for id := int32(0); id < 90; id += 3 {
		ups = append(ups, ProbeUpdate{Op: OpRemove, ID: id})
	}
	for i := 0; i < 80; i++ {
		ups = append(ups, ProbeUpdate{Op: OpAdd, ID: AutoID, Vec: randVec(rng, r)})
	}
	accelerated := quant.Accelerated(r)

	// answer runs the problem and returns its rows in canonical form (an
	// Above-θ answer as one row sorted by (query, probe)) with the counters
	// that sum over pairs.
	answer := func(ix *Index, prob Problem) ([][]retrieval.Entry, Stats) {
		t.Helper()
		var rows [][]retrieval.Entry
		var st Stats
		if prob.K > 0 {
			top, s, err := rowTopK(ix, q, prob.K)
			if err != nil {
				t.Fatal(err)
			}
			rows, st = top, s
		} else {
			above, s := collectAbove(t, ix, q, prob.Theta)
			retrieval.Sort(above)
			rows, st = [][]retrieval.Entry{above}, s
		}
		var c Stats
		addCounters(&c, st)
		return rows, c
	}

	for _, alg := range []Algorithm{AlgL, AlgLC, AlgLI, AlgI} {
		for _, mutate := range []bool{false, true} {
			for _, prob := range []Problem{{K: 7}, {Theta: theta}} {
				t.Run(fmt.Sprintf("%v/mutated=%v/k=%d", alg, mutate, prob.K), func(t *testing.T) {
					build := func(quantize bool) *Index {
						opts := testOptions(alg)
						opts.CacheBytes = bucketBytes(r) * 64
						opts.Quantize = quantize
						ix, err := NewIndex(p, opts)
						if err != nil {
							t.Fatal(err)
						}
						if mutate {
							if _, err := ix.Apply(ups); err != nil {
								t.Fatal(err)
							}
							if base := ix.segs[0]; len(ix.segs) == 1 || base.live == len(base.ids) {
								t.Fatal("mutated fixture has no delta buckets or no tombstones")
							}
						}
						return ix
					}
					auto, off, eager := build(false), build(false), build(true)
					wantMin := 0
					if accelerated {
						wantMin = autoScreenMin
					}
					if auto.screenMin != wantMin || eager.screenMin != 1 {
						t.Fatalf("screenMin = %d on a default index (accelerated: %v), %d under Quantize", auto.screenMin, accelerated, eager.screenMin)
					}
					off.screenMin = 0
					exported := auto.State()
					if auto.SidecarBytes() != 0 || eager.SidecarBytes() != 0 {
						t.Fatalf("before any call: %d sidecar bytes on a default index, %d under Quantize", auto.SidecarBytes(), eager.SidecarBytes())
					}

					want, wantC := answer(off, prob)
					if wantC.QuantScreened != 0 || wantC.QuantSurvived != 0 || off.SidecarBytes() != 0 {
						t.Fatalf("screen forced off, yet %+v and %d sidecar bytes", wantC, off.SidecarBytes())
					}
					first, firstC := answer(auto, prob)
					again, againC := answer(auto, prob)
					quantized, quantizedC := answer(eager, prob)
					for name, got := range map[string][][]retrieval.Entry{"default": first, "default, repeated": again, "Quantize": quantized} {
						if !slices.EqualFunc(got, want, slices.Equal[[]retrieval.Entry]) {
							t.Fatalf("%s index answers differently from the unscreened one", name)
						}
					}
					if firstC != againC {
						t.Fatalf("counters depend on the calls before:\nfirst  %+v\nrepeat %+v", firstC, againC)
					}
					if quantizedC.QuantScreened == 0 || eager.SidecarBytes() == 0 {
						t.Fatalf("fixture is vacuous: the Quantize index screened %d candidates, built %d sidecar bytes", quantizedC.QuantScreened, eager.SidecarBytes())
					}
					if !accelerated {
						if firstC != wantC || auto.SidecarBytes() != 0 {
							t.Fatalf("portable kernels, yet the default index screened: %+v, %d sidecar bytes", firstC, auto.SidecarBytes())
						}
						return
					}
					if firstC.QuantScreened == 0 || auto.SidecarBytes() == 0 {
						t.Fatalf("default index on assembly kernels screened nothing: %+v, %d sidecar bytes", firstC, auto.SidecarBytes())
					}
					if auto.SidecarBytes() > eager.SidecarBytes() {
						t.Fatalf("the default index's sidecars hold %d bytes, more than the %d of the Quantize index, which screens every pair it does", auto.SidecarBytes(), eager.SidecarBytes())
					}
					// One accounting identity on every arm, and the bucket
					// report agrees with the byte count.
					if firstC.QuantScreened+firstC.QuantSurvived > firstC.Candidates ||
						firstC.Candidates != wantC.Candidates || firstC.Results != wantC.Results {
						t.Fatalf("default index counters:\n got %+v\nwant the unscreened %+v but for the screen", firstC, wantC)
					}
					if !slices.ContainsFunc(auto.Buckets(), func(b BucketInfo) bool { return b.Sidecar }) {
						t.Fatal("no bucket reports the sidecar SidecarBytes counts")
					}
					if !reflect.DeepEqual(auto.State(), exported) {
						t.Fatal("the calls changed the state a snapshot exports")
					}
				})
			}
		}
	}
}

// TestQuantizeSkipsSeedPairs: under Options.Quantize, as without it, a
// Row-Top-k pair whose heap is not yet full (cut −∞: the seed buckets) is not
// screened, since no bound can fall below −∞. With k at the probe count every
// pair of every query is such a pair, so the screen counts nothing; at a
// small k it screens. Answers equal an unscreened index's either way.
func TestQuantizeSkipsSeedPairs(t *testing.T) {
	const r = 24
	rng := rand.New(rand.NewSource(2002))
	p := genMatrix(rng, 300, r, 0.5, 1, false, 0, 0)
	q := genMatrix(rng, 20, r, 0.5, 1, false, 0, 0)
	build := func(quantize bool) *Index {
		opts := testOptions(AlgL)
		opts.CacheBytes = bucketBytes(r) * 32
		opts.Quantize = quantize
		ix, err := NewIndex(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !quantize {
			ix.screenMin = 0
		}
		return ix
	}
	eager, off := build(true), build(false)
	for _, k := range []int{p.N(), 5} {
		want, _, err := rowTopK(off, q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := rowTopK(eager, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, want, slices.Equal[[]retrieval.Entry]) {
			t.Fatalf("k=%d: the Quantize index answers differently from the unscreened one", k)
		}
		switch {
		case k == p.N() && st.QuantScreened+st.QuantSurvived != 0:
			t.Fatalf("k=%d: every pair is a seed pair, yet the screen counted %d screened and %d survived", k, st.QuantScreened, st.QuantSurvived)
		case k < p.N() && st.QuantScreened == 0:
			t.Fatalf("k=%d: fixture is vacuous, the Quantize index screened nothing", k)
		}
	}
}

// TestSidecarBuiltOnFirstScreen: a bucket's int8 sidecar is built by the
// first pair that screens the bucket and by nothing else, under
// Options.Quantize as by default. A build, a restore, an update batch and a
// compaction leave every bucket without one; after one call, every bucket
// that carries one holds quant.QuantizeRowsMax of its rows at the step its
// length pass found, bit for bit, under every kernel tier the host runs (and
// equal to the portable tier's); concurrent first calls on a fresh index
// build each sidecar once.
func TestSidecarBuiltOnFirstScreen(t *testing.T) {
	const r = 50 // wide enough for the int8 assembly
	rng := rand.New(rand.NewSource(561))
	p := genMatrix(rng, 1500, r, 0.5, 1, false, 2, 4)
	q := genMatrix(rng, 24, r, 0.5, 1, false, 1, 0)
	theta, _ := safeTheta(t, q, p, 300)
	var ups []ProbeUpdate
	for id := int32(0); id < 150; id += 5 {
		ups = append(ups, ProbeUpdate{Op: OpRemove, ID: id})
	}
	for i := 0; i < 60; i++ {
		ups = append(ups, ProbeUpdate{Op: OpAdd, ID: AutoID, Vec: randVec(rng, r)})
	}
	build := func(t *testing.T, quantize bool) *Index {
		t.Helper()
		opts := testOptions(AlgL)
		opts.CacheBytes = bucketBytes(r) * 64
		opts.Quantize = quantize
		ix, err := NewIndex(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	noSidecar := func(t *testing.T, what string, ix *Index) {
		t.Helper()
		if ix.SidecarBytes() != 0 || slices.ContainsFunc(ix.Buckets(), func(b BucketInfo) bool { return b.Sidecar }) {
			t.Fatalf("%s: %d sidecar bytes before any call", what, ix.SidecarBytes())
		}
	}

	// Every sidecar the calls build, to hold against the portable tier's.
	type sidecar struct {
		name string
		bi   int
		b    *bucket
		got  *quant.Rows
	}
	var sidecars []sidecar
	forEachTier(t, func(t *testing.T) {
		for _, quantize := range []bool{false, true} {
			built := build(t, quantize)
			restored, err := FromState(built.State())
			if err != nil {
				t.Fatal(err)
			}
			updated, _, err := built.WithUpdates(ups)
			if err != nil {
				t.Fatal(err)
			}
			compacted, _, err := built.WithUpdates(ups)
			if err != nil {
				t.Fatal(err)
			}
			compacted.Compact()
			indexes := []struct {
				name string
				ix   *Index
			}{{"built", built}, {"restored", restored}, {"updated", updated}, {"compacted", compacted}}
			for _, c := range indexes {
				noSidecar(t, fmt.Sprintf("quantize=%v %s", quantize, c.name), c.ix)
			}
			for _, c := range indexes {
				ix := c.ix
				for _, prob := range []Problem{{K: 10}, {Theta: theta}} {
					name := fmt.Sprintf("quantize=%v %s %+v", quantize, c.name, prob)
					var st Stats
					if prob.K > 0 {
						if _, st, err = rowTopK(ix, q, prob.K); err != nil {
							t.Fatal(err)
						}
					} else {
						_, st = collectAbove(t, ix, q, prob.Theta)
					}
					screened := st.QuantScreened+st.QuantSurvived > 0
					if screened != (ix.screenMin > 0) || screened != (ix.SidecarBytes() > 0) {
						t.Fatalf("%s: screenMin %d, %d candidates screened, %d sidecar bytes", name, ix.screenMin, st.QuantScreened+st.QuantSurvived, ix.SidecarBytes())
					}
					for bi, b := range ix.scan {
						got := b.q8.Load()
						if got == nil {
							continue
						}
						if want := quant.QuantizeRowsMax(b.rows, b.r, b.maxAbs); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: bucket %d's sidecar is not QuantizeRowsMax of its rows", name, bi)
						}
						sidecars = append(sidecars, sidecar{vecmath.Kernels() + " " + name, bi, b, got})
					}
				}
			}
		}
	})

	restore := vecmath.LimitTier(vecmath.TierPortable)
	for _, s := range sidecars {
		if !reflect.DeepEqual(s.got, quant.QuantizeRowsMax(s.b.rows, s.b.r, s.b.maxAbs)) {
			t.Errorf("%s: bucket %d's sidecar differs from the portable tier's", s.name, s.bi)
		}
	}
	restore()

	t.Run("concurrent", func(t *testing.T) {
		const callers = 4
		for _, quantize := range []bool{false, true} {
			want, _, err := rowTopK(build(t, quantize), q, 10)
			if err != nil {
				t.Fatal(err)
			}
			ix := build(t, quantize)
			seen := make([][]*quant.Rows, callers)
			var wg sync.WaitGroup
			for w := range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, _, err := rowTopK(ix, q, 10)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("quantize=%v caller %d: answer differs from the serial one", quantize, w)
					}
					for _, b := range ix.scan {
						seen[w] = append(seen[w], b.q8.Load())
					}
				}()
			}
			wg.Wait()
			for w := 1; w < callers; w++ {
				if !slices.Equal(seen[w], seen[0]) {
					t.Fatalf("quantize=%v: caller %d saw other sidecars than caller 0: one was built twice", quantize, w)
				}
			}
			if (ix.screenMin > 0) != slices.ContainsFunc(seen[0], func(s *quant.Rows) bool { return s != nil }) {
				t.Fatalf("quantize=%v: screenMin %d, yet sidecars after the calls: %v", quantize, ix.screenMin, ix.SidecarBytes())
			}
		}
	})
}
