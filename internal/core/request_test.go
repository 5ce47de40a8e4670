package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lemp/internal/matrix"
	"lemp/internal/obs"
	"lemp/internal/retrieval"
)

// cancelFixture builds an index with several buckets (so mid-retrieval
// cancellation has bucket boundaries to hit) and a query matrix.
func cancelFixture(t *testing.T) (*Index, *matrix.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	p := genMatrix(rng, 600, 8, 0.6, 1, false, 0, 0)
	q := genMatrix(rng, 64, 8, 0.6, 1, false, 0, 0)
	ix, err := NewIndex(p, Options{Algorithm: AlgLI, MinBucketSize: 10, CacheBytes: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumBuckets() < 4 {
		t.Fatalf("fixture has %d buckets, want several", ix.NumBuckets())
	}
	return ix, q
}

func TestCancelBeforeStart(t *testing.T) {
	ix, q := cancelFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, _, err := ix.Retrieve(ctx, q, Problem{K: 5}, nil, RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Row-Top-k on canceled ctx: err = %v, want context.Canceled", err)
	}
	var n int
	if _, _, err := ix.Retrieve(ctx, q, Problem{Theta: 0.5}, func(retrieval.Entry) { n++ }, RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Above-θ on canceled ctx: err = %v, want context.Canceled", err)
	}

	// The index stays fully usable: an uncanceled call answers identically
	// to a fresh index over the same probes.
	top, _, err := rowTopK(ix, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := rebuild(ix, ix.Options())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := rowTopK(fresh, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(top, want) {
		t.Fatal("post-cancel RowTopK differs from a fresh index")
	}
}

// TestCancelMidRetrieval cancels from inside the emit callback — a
// deterministic mid-scan cancellation point — and checks the call stops
// promptly (bounded by one bucket's worth of further emissions), reports
// context.Canceled, and leaves the index reusable.
func TestCancelMidRetrieval(t *testing.T) {
	ix, q := cancelFixture(t)
	theta := 0.2 // low threshold: many entries, many buckets survive

	var full int
	if _, err := aboveTheta(ix, q, theta, func(retrieval.Entry) { full++ }); err != nil {
		t.Fatal(err)
	}
	if full < 100 {
		t.Fatalf("fixture yields only %d entries; threshold too high for the test", full)
	}

	maxBucket := 0
	for _, b := range ix.scan {
		if b.size() > maxBucket {
			maxBucket = b.size()
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	emitted := 0
	_, _, err := ix.Retrieve(ctx, q, Problem{Theta: theta}, func(retrieval.Entry) {
		emitted++
		if emitted == 10 {
			cancel()
		}
	}, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-scan cancel: err = %v, want context.Canceled", err)
	}
	// The checkpoint sits at every (bucket, query) boundary, so after the
	// cancel at entry 10 at most one further (bucket, query) pair — ≤ one
	// bucket of candidates — may still emit.
	if emitted > 10+maxBucket {
		t.Fatalf("call emitted %d entries after cancellation at 10 (max bucket %d)", emitted, maxBucket)
	}

	// Reusable afterwards, byte-identically.
	var again int
	if _, err := aboveTheta(ix, q, theta, func(retrieval.Entry) { again++ }); err != nil {
		t.Fatal(err)
	}
	if again != full {
		t.Fatalf("post-cancel run found %d entries, want %d", again, full)
	}
}

// TestCancelMidRetrievalParallel is the same mid-scan cancellation under
// worker fan-out: every worker must stop, the executor must report the
// context error, and the index must stay usable.
func TestCancelMidRetrievalParallel(t *testing.T) {
	ix, q := cancelFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	_, _, err := ix.Retrieve(ctx, q, Problem{Theta: 0.2}, func(retrieval.Entry) {
		n++
		if n == 5 {
			cancel()
		}
	}, RunOptions{Parallelism: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel mid-scan cancel: err = %v, want context.Canceled", err)
	}
	if _, _, err := ix.Retrieve(context.Background(), q, Problem{K: 3}, nil, RunOptions{Parallelism: 4}); err != nil {
		t.Fatalf("index unusable after parallel cancel: %v", err)
	}
}

// TestProblemValidatedOnceEverywhere drives every core entry that takes a
// problem, and FromState, through the same bad k/θ values: each must give
// Problem.Validate's refusal, before any tuning or scan work starts.
func TestProblemValidatedOnceEverywhere(t *testing.T) {
	ix, q := cancelFixture(t)
	if err := ix.Pretune(q, Problem{K: 3}); err != nil {
		t.Fatal(err)
	}
	state := ix.State() // carries a retained tuning sample and problem
	ctx := context.Background()
	sink := func(retrieval.Entry) { t.Error("a refused call emitted an entry") }
	bad := []Problem{
		{}, // neither set
		{K: -1},
		{Theta: -1},
		{Theta: math.NaN()},
		{Theta: math.Inf(1)},
		{Theta: math.Inf(-1)},
		{K: 3, Theta: 0.5}, // both set
		{K: -1, Theta: 0.5},
	}
	for _, prob := range bad {
		want := prob.Validate()
		if want == nil {
			t.Fatalf("%+v validates", prob)
		}
		fresh, err := rebuild(ix, ix.Options())
		if err != nil {
			t.Fatal(err)
		}
		tc := NewTuningCache()
		entries := map[string]error{}
		_, _, entries["Retrieve"] = fresh.Retrieve(ctx, q, prob, sink, RunOptions{Cache: tc})
		_, _, entries["Retrieve, nil sink"] = fresh.Retrieve(ctx, q, prob, nil, RunOptions{Cache: tc})
		_, entries["NewJob"] = fresh.NewJob(prob, RunOptions{Cache: tc})
		entries["Pretune"] = fresh.Pretune(q, prob)
		for name, err := range entries {
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%+v through %s: err = %v, want %v", prob, name, err, want)
			}
		}
		if tc.Misses() != 0 || fresh.Pretuned() {
			t.Errorf("%+v: a refused call reached the tuning phase", prob)
		}
		for bi, b := range fresh.Buckets() {
			if b.Tuned || b.Indexed {
				t.Errorf("%+v: bucket %d tuned or indexed by a refused call", prob, bi)
			}
		}
		st := *state
		st.TuneProblem = prob
		if _, err := FromState(&st); err == nil || !strings.HasSuffix(err.Error(), want.Error()) {
			t.Errorf("%+v through FromState: err = %v, want %v", prob, err, want)
		}
	}
	if _, err := FromState(state); err != nil {
		t.Fatalf("the unedited state does not load: %v", err)
	}
}

// TestJobRunRecordsPhaseSpans: a traced Job.Run records exactly one tune and
// one scan span under the caller's span, like the one-shot call; the hooks
// of an untraced call allocate nothing.
func TestJobRunRecordsPhaseSpans(t *testing.T) {
	ix, q := cancelFixture(t)
	for _, c := range []struct {
		prob Problem
		sink retrieval.Sink
	}{{Problem{K: 5}, nil}, {Problem{Theta: 0.5}, func(retrieval.Entry) {}}} {
		job, err := ix.NewJob(c.prob, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer(obs.TracerConfig{}).StartTrace()
		root := tr.Start("panel", obs.NoSpan)
		if _, _, err := job.Run(obs.ContextWithSpan(context.Background(), tr, root), q, c.sink); err != nil {
			t.Fatal(err)
		}
		tr.End(root)
		count := map[string]int{}
		for _, sp := range tr.Spans()[1:] {
			count[sp.Name]++
			if sp.Parent != root || sp.EndNS < sp.StartNS || sp.EndNS == 0 {
				t.Errorf("%+v: span %+v is not a closed child of the caller's span", c.prob, sp)
			}
		}
		if len(count) != 2 || count["tune"] != 1 || count["scan"] != 1 {
			t.Errorf("%+v: traced Run recorded spans %v, want one tune and one scan", c.prob, count)
		}
	}
	untraced := newCall(context.Background(), ix.opts.Parallelism, nil)
	if n := testing.AllocsPerRun(100, func() {
		untraced.endSpan(untraced.startSpan("tune"))
		untraced.endSpan(untraced.startSpan("scan"))
	}); n != 0 {
		t.Errorf("untraced phase-span hooks allocate %v times per call", n)
	}
}

func TestRunOptionsRejectsInvalid(t *testing.T) {
	ix, q := cancelFixture(t)
	if _, _, err := ix.Retrieve(context.Background(), q, Problem{K: 5}, nil, RunOptions{Parallelism: -2}); err == nil {
		t.Fatal("negative per-call parallelism accepted")
	}
}

func TestTuningCacheWarmCallSkipsTuning(t *testing.T) {
	ix, q := cancelFixture(t)
	tc := NewTuningCache()

	baseline, _, err := rowTopK(ix, q, 5)
	if err != nil {
		t.Fatal(err)
	}

	cold, coldSt, err := ix.Retrieve(context.Background(), q, Problem{K: 5}, nil, RunOptions{Cache: tc})
	if err != nil {
		t.Fatal(err)
	}
	if coldSt.Tunings != 1 || coldSt.TuneCacheHits != 0 {
		t.Fatalf("cold call: Tunings=%d TuneCacheHits=%d, want 1/0", coldSt.Tunings, coldSt.TuneCacheHits)
	}

	warm, warmSt, err := ix.Retrieve(context.Background(), q, Problem{K: 5}, nil, RunOptions{Cache: tc})
	if err != nil {
		t.Fatal(err)
	}
	if warmSt.Tunings != 0 || warmSt.TuneCacheHits != 1 {
		t.Fatalf("warm call: Tunings=%d TuneCacheHits=%d, want 0/1", warmSt.Tunings, warmSt.TuneCacheHits)
	}
	if warmSt.TuneTime != 0 {
		t.Fatalf("warm call spent %v tuning, want 0", warmSt.TuneTime)
	}
	if !reflect.DeepEqual(cold, baseline) || !reflect.DeepEqual(warm, baseline) {
		t.Fatal("cached-tuning results differ from uncached retrieval")
	}

	// A different k is a different problem: it must tune again.
	_, otherSt, err := ix.Retrieve(context.Background(), q, Problem{K: 7}, nil, RunOptions{Cache: tc})
	if err != nil {
		t.Fatal(err)
	}
	if otherSt.Tunings != 1 {
		t.Fatalf("different k reused the k=5 fit (Tunings=%d)", otherSt.Tunings)
	}

	// Above-θ keys separately from Row-Top-k.
	sink := func(retrieval.Entry) {}
	if _, _, err := ix.Retrieve(context.Background(), q, Problem{Theta: 0.5}, sink, RunOptions{Cache: tc}); err != nil {
		t.Fatal(err)
	}
	_, st2, err := ix.Retrieve(context.Background(), q, Problem{Theta: 0.5}, sink, RunOptions{Cache: tc})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Tunings != 0 || st2.TuneCacheHits != 1 {
		t.Fatalf("warm Above-θ: Tunings=%d TuneCacheHits=%d, want 0/1", st2.Tunings, st2.TuneCacheHits)
	}
}

func TestTuningCacheInvalidatedByMutation(t *testing.T) {
	ix, q := cancelFixture(t)
	tc := NewTuningCache()
	ro := RunOptions{Cache: tc}

	if _, _, err := ix.Retrieve(context.Background(), q, Problem{K: 5}, nil, ro); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Apply([]ProbeUpdate{{Op: OpAdd, ID: AutoID, Vec: q.Vec(0)}}); err != nil {
		t.Fatal(err)
	}
	_, st, err := ix.Retrieve(context.Background(), q, Problem{K: 5}, nil, ro)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tunings != 1 || st.TuneCacheHits != 0 {
		t.Fatalf("post-mutation call reused a stale fit (Tunings=%d, hits=%d)", st.Tunings, st.TuneCacheHits)
	}

	// Compact changes the bucket layout without advancing the epoch; the
	// layout generation must still rotate the key.
	if _, _, err := ix.Retrieve(context.Background(), q, Problem{K: 5}, nil, ro); err != nil {
		t.Fatal(err)
	}
	ix.Compact()
	_, st, err = ix.Retrieve(context.Background(), q, Problem{K: 5}, nil, ro)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tunings != 1 || st.TuneCacheHits != 0 {
		t.Fatalf("post-Compact call reused a stale fit (Tunings=%d, hits=%d)", st.Tunings, st.TuneCacheHits)
	}

	// And the mutated index still answers byte-identically to fresh.
	top, _, err := ix.Retrieve(context.Background(), q, Problem{K: 5}, nil, ro)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := rebuild(ix, ix.Options())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := rowTopK(fresh, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(top, want) {
		t.Fatal("cached-tuning mutated index differs from fresh build")
	}
}

// TestCanceledTuningPublishesNothing cancels during the tuning phase and
// checks no partial fit lands in the cache and the index recovers.
func TestCanceledTuningPublishesNothing(t *testing.T) {
	ix, q := cancelFixture(t)
	tc := NewTuningCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the tuning loop's first bucket checkpoint
	if _, _, err := ix.Retrieve(ctx, q, Problem{K: 5}, nil, RunOptions{Cache: tc}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := tc.Len(); n != 0 {
		t.Fatalf("canceled call published %d cache entries", n)
	}
	// Misses counted, hits none.
	if tc.Hits() != 0 {
		t.Fatalf("phantom cache hit recorded")
	}
	if _, _, err := ix.Retrieve(context.Background(), q, Problem{K: 5}, nil, RunOptions{Cache: tc}); err != nil {
		t.Fatal(err)
	}
	if tc.Len() != 1 {
		t.Fatalf("recovered call did not publish its fit")
	}

	// The same through a Job: a canceled first run leaves it without a fit,
	// and the next run makes one.
	j, err := ix.NewJob(Problem{K: 6}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.Run(ctx, q, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if j.tuned.Load() || j.fit != nil {
		t.Fatalf("canceled run left the job a fit (tuned=%v, %d entries)", j.tuned.Load(), len(j.fit))
	}
	if _, _, err := j.Run(context.Background(), q, nil); err != nil {
		t.Fatal(err)
	}
	if !j.tuned.Load() || len(j.fit) != len(ix.scan) {
		t.Fatalf("recovered run made no fit (tuned=%v, %d entries for %d buckets)", j.tuned.Load(), len(j.fit), len(ix.scan))
	}
}

// TestCanceledTuningWhileFitting cancels a tuning pass in its second phase,
// deterministically: the trajectories are walked and the deepest bucket the
// sample reaches has its lists, when the cancellation lands, and the pass is
// kept from finishing first by holding the list build of the next bucket it
// must observe (the two deepest are observed whatever their timings: the
// sweep needs tunePatience fitted buckets). It returns the context's error,
// publishes nothing, and the index answers as its untouched twin.
func TestCanceledTuningWhileFitting(t *testing.T) {
	ix, q := cancelFixture(t)
	twin, _ := cancelFixture(t)
	prob := Problem{K: 5}
	if _, err := twin.tune(newCall(nil, twin.opts.Parallelism, nil), preparedQueries(t, q), prob); err != nil {
		t.Fatal(err)
	}
	var observed []*bucket // of ix, in the order the pass observes them
	for bi := len(twin.scan) - 1; bi >= 0; bi-- {
		if twin.scan[bi].lists.Load() != nil {
			observed = append(observed, ix.scan[bi])
		}
	}
	if len(observed) < 2 {
		t.Fatalf("the tuning pass observes %d buckets, want at least two", len(observed))
	}
	first, second := observed[0], observed[1]
	held, release := make(chan struct{}), make(chan struct{})
	go second.listsOnce.Do(func() {
		close(held)
		<-release
		second.lists.Store(buildLists(second, 1))
	})
	<-held

	ctx, cancel := context.WithCancel(context.Background())
	tc := NewTuningCache()
	errc := make(chan error, 1)
	go func() {
		_, _, err := ix.Retrieve(ctx, q, prob, nil, RunOptions{Cache: tc})
		errc <- err
	}()
	for first.lists.Load() == nil { // the first phase builds none
		runtime.Gosched()
	}
	cancel()
	close(release)
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := tc.Len(); n != 0 {
		t.Fatalf("canceled pass published %d cache entries", n)
	}
	got, _, err := ix.Retrieve(context.Background(), q, prob, nil, RunOptions{Cache: tc})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := rowTopK(twin, q, prob.K)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || tc.Len() != 1 {
		t.Fatalf("after the canceled pass: answer equals the twin's: %v, %d cache entries", reflect.DeepEqual(got, want), tc.Len())
	}
}

// rebuild is a fresh index under opts over ix's live probes and ids.
func rebuild(ix *Index, opts Options) (*Index, error) {
	p, ids := ix.LiveProbes()
	return NewIndexWithIDs(p, ids, opts)
}
