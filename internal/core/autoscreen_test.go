package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lemp/internal/quant"
	"lemp/internal/retrieval"
)

// TestAutoScreenMatchesUnscreened is the contract of the automatic int8
// screen (sidecarFor): an index built with default options answers byte for
// byte like the same index with the screen forced off and like one built with
// Options.Quantize, for the L/C/I family, both problems, with and without
// tombstones + delta buckets. Its sidecars are lazy — none before the first
// call, some after it where quant's kernels are assembly, none ever where they
// are not (so under -tags purego all three arms must still agree, with the
// default arm screening nothing) — and whether a pair is screened does not
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
					if auto.autoScreen != accelerated || eager.autoScreen {
						t.Fatalf("autoScreen = %v on a default index (accelerated: %v), %v under Quantize", auto.autoScreen, accelerated, eager.autoScreen)
					}
					off.autoScreen = false
					exported := exportedState(auto)
					if auto.SidecarBytes() != 0 || eager.SidecarBytes() == 0 {
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
					if quantizedC.QuantScreened == 0 {
						t.Fatal("fixture is vacuous: the Quantize index screened nothing")
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
						t.Fatalf("lazy sidecars hold %d bytes, more than the %d of every bucket's", auto.SidecarBytes(), eager.SidecarBytes())
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
					if !reflect.DeepEqual(exportedState(auto), exported) {
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
		ix.autoScreen = false
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
