package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"lemp/internal/retrieval"
)

// TestConcurrentRetrievals is the Index concurrency contract under the race
// detector: several goroutines mix every kind of retrieval — Row-Top-k at
// several k, Above-θ, the panels of one Job — on one index and on its
// copy-on-write derivative at once, with and without a shared TuningCache,
// fitting per call and under a frozen fit, while another goroutine exports
// State. No retrieval writes index state, so every answer
// must equal the one the same call gives alone. TuneByCost makes each call's
// fit a function of the call. The index screens either every pair
// (Options.Quantize) or by the default rule, switched on whatever the host's
// kernels; either way the first-touch sidecar builds meet concurrent scans,
// State and the copy-on-write relative, which shares the base segment's
// sidecars.
func TestConcurrentRetrievals(t *testing.T) {
	const (
		r       = 10
		workers = 6
	)
	rng := rand.New(rand.NewSource(1901))
	p := genMatrix(rng, 500, r, 0.9, 1, false, 0, 0)
	q := genMatrix(rng, 36, r, 0.9, 1, false, 1, 0)
	theta, _ := safeTheta(t, q, p, 150)

	// Enough adds for a run of several buckets beside the base's.
	var ups []ProbeUpdate
	for i := 0; i < 40; i++ {
		ups = append(ups, ProbeUpdate{Op: OpAdd, ID: AutoID, Vec: randVec(rng, r)})
	}
	for id := int32(0); id < 10; id++ {
		ups = append(ups, ProbeUpdate{Op: OpRemove, ID: id})
		ups = append(ups, ProbeUpdate{Op: OpUpdate, ID: 100 + id, Vec: randVec(rng, r)})
	}

	// answer is a call's result in canonical form: Row-Top-k rows as
	// returned, Above-θ entries sorted by (query, probe).
	type answer struct {
		rows  []retrieval.TopK
		above []retrieval.Entry
	}
	ctx := context.Background()
	topk := func(k int) func(*Index, RunOptions) (answer, error) {
		return func(ix *Index, ro RunOptions) (answer, error) {
			rows, _, err := ix.Retrieve(ctx, q, Problem{K: k}, nil, ro)
			return answer{rows: []retrieval.TopK{rows}}, err
		}
	}
	calls := []struct {
		name string
		run  func(*Index, RunOptions) (answer, error)
	}{
		{"topk3", topk(3)},
		{"topk5", topk(5)},
		{"topk9", topk(9)},
		{"above", func(ix *Index, ro RunOptions) (answer, error) {
			var a answer
			_, _, err := ix.Retrieve(ctx, q, Problem{Theta: theta}, retrieval.Collect(&a.above), ro)
			retrieval.Sort(a.above)
			return a, err
		}},
		{"panels", func(ix *Index, ro RunOptions) (answer, error) {
			j, err := ix.NewJob(Problem{K: 7}, ro)
			if err != nil {
				return answer{}, err
			}
			const panelRows = 12
			a := answer{rows: make([]retrieval.TopK, (q.N()+panelRows-1)/panelRows)}
			errs := make([]error, len(a.rows))
			var wg sync.WaitGroup
			for pi := range a.rows {
				wg.Add(1)
				go func(pi int) {
					defer wg.Done()
					a.rows[pi], _, errs[pi] = j.Run(ctx, q.Slice(pi*panelRows, min((pi+1)*panelRows, q.N())), nil)
				}(pi)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return a, err
				}
			}
			return a, nil
		}},
	}

	for _, alg := range []Algorithm{AlgLI, AlgLC, AlgI} {
		for _, pretuned := range []bool{false, true} {
			for _, cached := range []bool{false, true} {
				for _, quantize := range []bool{true, false} {
					name := fmt.Sprintf("%v/pretuned=%v/cache=%v", alg, pretuned, cached)
					if !quantize { // both arms build sidecars lazily
						name += "/default-screen"
					}
					t.Run(name, func(t *testing.T) {
						// The serial answers come from a twin pair built the same
						// way, so the concurrent phase meets cold indexes and
						// their lazy per-bucket builds too.
						build := func() []*Index {
							base, err := NewIndex(p, Options{Algorithm: alg, TuneByCost: true, Quantize: quantize, MinBucketSize: 10, CacheBytes: 8 * 1024})
							if err != nil {
								t.Fatal(err)
							}
							if !quantize {
								base.screenMin = autoScreenMin
							}
							if pretuned {
								if err := base.Pretune(q.Head(12), Problem{K: 5}); err != nil {
									t.Fatal(err)
								}
							}
							derived, _, err := base.WithUpdates(ups)
							if err != nil {
								t.Fatal(err)
							}
							return []*Index{base, derived}
						}
						ixs := build()
						want := make([][]answer, len(ixs))
						for i, ix := range build() {
							want[i] = make([]answer, len(calls))
							for ci, c := range calls {
								var err error
								if want[i][ci], err = c.run(ix, RunOptions{}); err != nil {
									t.Fatalf("serial %s on index %d: %v", c.name, i, err)
								}
							}
						}

						var ro RunOptions
						if cached {
							ro.Cache = NewTuningCache()
						}
						exported := ixs[0].State()
						var stop atomic.Bool
						var exporter sync.WaitGroup
						exporter.Add(1)
						go func() {
							defer exporter.Done()
							for !stop.Load() {
								for i, ix := range ixs {
									if st := ix.State(); (st.TuneSample != nil) != pretuned || st.Probe.N() == 0 {
										t.Errorf("State of index %d beside retrievals: tuning sample %v, %d probes", i, st.TuneSample != nil, st.Probe.N())
									}
								}
							}
						}()
						var wg sync.WaitGroup
						for w := 0; w < workers; w++ {
							wg.Add(1)
							go func(w int) {
								defer wg.Done()
								// Every worker makes every call on both indexes,
								// each starting somewhere else.
								for n := 0; n < len(ixs)*len(calls); n++ {
									i, ci := (w+n)%len(ixs), (w+n/len(ixs))%len(calls)
									got, err := calls[ci].run(ixs[i], ro)
									if err != nil {
										t.Errorf("%s on index %d: %v", calls[ci].name, i, err)
									} else if !reflect.DeepEqual(got, want[i][ci]) {
										t.Errorf("%s on index %d: answer differs from the serial one", calls[ci].name, i)
									}
								}
							}(w)
						}
						wg.Wait()
						stop.Store(true)
						exporter.Wait()
						if ixs[0].SidecarBytes() == 0 {
							t.Error("no sidecar bytes after the calls")
						}
						if !reflect.DeepEqual(ixs[0].State(), exported) {
							t.Error("the calls changed the state a snapshot exports")
						}
					})
				}
			}
		}
	}
}

// TestConcurrentDeriveBesideRetrievals is the sharing contract of the delta
// layer under the race detector: while one writer derives 300 versions, each
// from the last — setting tombstones in copied bitsets, merging runs,
// carrying buckets, fits and the scratch pool over by pointer — readers keep
// retrieving from the first index and three generations of its relatives.
// Nothing reachable from a published index is written again, so every
// answer equals the one the version gave before the writer started.
func TestConcurrentDeriveBesideRetrievals(t *testing.T) {
	const r = 10
	rng := rand.New(rand.NewSource(2201))
	p := genMatrix(rng, 400, r, 0.9, 1, false, 0, 0)
	q := genMatrix(rng, 6, r, 0.9, 1, false, 1, 0)
	base, err := NewIndex(p, Options{Algorithm: AlgLI, TuneByCost: true, MinBucketSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Pretune(q, Problem{K: 5}); err != nil {
		t.Fatal(err)
	}
	model := &probeModel{vecs: make(map[int32][]float64)}
	for i := 0; i < p.N(); i++ {
		model.vecs[int32(i)] = p.Vec(i)
	}
	var recent, gone []int32
	nextID := int32(p.N())
	derive := func(ix *Index, batches int) *Index {
		for i := 0; i < batches; i++ {
			next, _, err := ix.WithUpdates(churnBatch(rng, model, &nextID, r, &recent, &gone))
			if err != nil {
				t.Error(err)
				return ix
			}
			ix = next
		}
		return ix
	}
	versions := []*Index{base}
	for g := 0; g < 3; g++ { // three generations, 12 batches apart
		versions = append(versions, derive(versions[g], 12))
	}
	ctx := context.Background()
	answer := func(ix *Index) retrieval.TopK {
		rows, _, err := ix.Retrieve(ctx, q, Problem{K: 7}, nil, RunOptions{})
		if err != nil {
			t.Error(err)
		}
		return rows
	}
	want := make([]retrieval.TopK, len(versions))
	for i, ix := range versions {
		want[i] = answer(ix)
	}

	var stop atomic.Bool
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for n := w; !stop.Load(); n++ {
				if i := n % len(versions); !reflect.DeepEqual(answer(versions[i]), want[i]) {
					t.Errorf("version %d answers differently beside the writer", i)
					return
				}
			}
		}(w)
	}
	last := derive(versions[len(versions)-1], 300)
	stop.Store(true)
	readers.Wait()
	checkEqual(t, "the 300th derivation", last, model.freshIndex(t, r, Options{Algorithm: AlgLI, TuneByCost: true}), q, 7)
}

// TestConcurrentTuneBesideRetrievals runs the tuning pass itself under the
// race detector: two problems are fitted at once on one cold index, each pass
// fanning its pairs over three goroutines, beside retrievals of both problems
// that fit and scan too. The passes meet in the lazy builds — sorted lists
// and sidecars behind their Once — and in the scratch pool, and share nothing
// else, so under counted costs every fit and every answer is the one the
// same call gives alone.
func TestConcurrentTuneBesideRetrievals(t *testing.T) {
	const r = 10
	rng := rand.New(rand.NewSource(2302))
	p := genMatrix(rng, 600, r, 0.9, 1, false, 0, 0)
	q := genMatrix(rng, 24, r, 0.9, 1, false, 1, 0)
	theta, _ := safeTheta(t, q, p, 120)
	probs := []Problem{{K: 4}, {Theta: theta}}
	build := func() *Index {
		ix, err := NewIndex(p, Options{Algorithm: AlgLI, TuneByCost: true, MinBucketSize: 10, CacheBytes: 8 * 1024, Parallelism: 3})
		if err != nil {
			t.Fatal(err)
		}
		ix.screenMin = autoScreenMin // the default screen whatever the host's kernels
		return ix
	}
	tune := func(ix *Index, prob Problem) []tunedParam {
		fit, err := ix.tune(newCall(nil, ix.opts.Parallelism, nil), preparedQueries(t, q), prob)
		if err != nil {
			t.Error(err)
		}
		return fit
	}
	answer := func(ix *Index, prob Problem) any {
		var above []retrieval.Entry
		var sink retrieval.Sink
		if prob.K == 0 {
			sink = retrieval.Collect(&above)
		}
		rows, _, err := ix.Retrieve(context.Background(), q, prob, sink, RunOptions{})
		if err != nil {
			t.Error(err)
		}
		retrieval.Sort(above)
		return []any{rows, above}
	}
	var wantFit [2][]tunedParam
	var want [2]any
	for i, prob := range probs {
		wantFit[i], want[i] = tune(build(), prob), answer(build(), prob)
	}

	ix := build()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := w % 2
			if w < 2 {
				for n := 0; n < 3; n++ {
					if got := tune(ix, probs[i]); !reflect.DeepEqual(got, wantFit[i]) {
						t.Errorf("%+v: fit beside another tuning pass differs from the one made alone", probs[i])
					}
				}
			} else if !reflect.DeepEqual(answer(ix, probs[i]), want[i]) {
				t.Errorf("%+v: answer beside two tuning passes differs from the one given alone", probs[i])
			}
		}()
	}
	wg.Wait()
}
