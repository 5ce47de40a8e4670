// Package server turns the lemp library into a long-lived query service: it
// holds one LEMP index over the probe catalog, answers each HTTP request as
// one retrieval call on that index, applies live probe updates with
// epoch-consistent snapshots, and reports cumulative retrieval statistics.
package server

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lemp"
	"lemp/internal/obs"
)

// Sharded is the server's one index and what serves from it. LEMP visits
// buckets by decreasing length (§3), so the running top-k threshold rises
// fastest when one index sees the whole catalog; the index spends
// Options.Parallelism goroutines on a call and on a build. It runs LENGTH
// (lemp.AlgorithmL) with the int8 screen: no retrieval tunes and no bucket
// builds sorted lists. The type keeps its name because the benchmark/ module
// reaches it through Server.Sharded.
//
// The probe set is mutable: Update applies a batch of add/remove/update ops
// by deriving a new index copy-on-write (lemp.Index.WithUpdates) and swapping
// it in under one epoch increment. Queries run against a View — an immutable
// snapshot of (epoch, index) taken at dispatch — so every retrieval sees
// exactly one epoch even while updates land, and no response can mix pre- and
// post-update probe vectors.
//
// Sharded is safe for concurrent use: retrievals on the index, on any of its
// versions, run beside each other (see lemp.Index).
type Sharded struct {
	r int

	// mu guards the swappable serving state: the current index version and
	// the epoch. The index is replaced wholesale on every commit, never
	// mutated in place, so a View may hold it without the lock.
	mu    sync.RWMutex
	epoch uint64
	ix    *lemp.Index

	// updMu serializes Update calls.
	updMu sync.Mutex

	// tc is what TuningCache returns; nothing in the server consults it.
	tc *lemp.TuningCache

	statsMu sync.Mutex
	cum     lemp.Stats // cumulative stats across all retrieval calls

	// compactions counts re-bucketizations triggered by update delta mass
	// (exported as lemp_compactions_total).
	compactions atomic.Uint64

	// Observability hooks, wired once by the server before serving and nil
	// for library use: applyHist observes the wall time of each committed
	// Update, compactHist that of each compaction inside one.
	applyHist   *obs.Histogram
	compactHist *obs.Histogram

	// Test instrumentation: when set, testScanStart is called as each
	// retrieval begins (with the retrieval context, so a test can hold it
	// until a cancellation lands) and testScanDone as it returns with its
	// error, making mid-call cancellation observable.
	testScanStart func(ctx context.Context)
	testScanDone  func(err error)
}

// newSharded serves ix at epoch 0.
func newSharded(ix *lemp.Index) *Sharded {
	return &Sharded{r: ix.R(), ix: ix, tc: lemp.NewTuningCache()}
}

// loadSnapshots restores the index behind NewFromSnapshot, under LENGTH
// (lemp.LoadIndexLength): no file's tuning sample is fitted on. One file,
// whatever algorithm wrote it, is read once and built once. A set of several
// — one per shard, as builds whose server split its catalog into shards
// wrote it (in shard order) — loads file by file, each checked as
// LoadIndexLength checks it, and their live probes, in ascending id order,
// build one index under the first file's options. That build keeps every
// id and the input's AutoID mark, the highest of the files'.
func loadSnapshots(snapshots []io.Reader, opts lemp.LoadOptions) (*lemp.Index, error) {
	if len(snapshots) == 0 {
		return nil, fmt.Errorf("server: no snapshot to restore")
	}
	if len(snapshots) == 1 {
		ix, err := lemp.LoadIndexLength(snapshots[0], opts)
		if err != nil {
			return nil, fmt.Errorf("server: loading snapshot 0: %w", err)
		}
		return ix, nil
	}
	type probe struct {
		id  int32
		vec []float64
	}
	var (
		live  []probe
		first lemp.Options
		r     int
		mark  int32
	)
	for i, src := range snapshots {
		ix, err := lemp.LoadIndexLength(src, opts)
		if err != nil {
			return nil, fmt.Errorf("server: loading snapshot %d: %w", i, err)
		}
		if i == 0 {
			first, r = ix.Options(), ix.R()
		} else if ix.R() != r {
			return nil, fmt.Errorf("server: snapshot %d has dimension %d, snapshot 0 has %d", i, ix.R(), r)
		}
		m, ids := ix.LiveProbes()
		for col, id := range ids {
			live = append(live, probe{id, m.Vec(col)})
		}
		mark = max(mark, ix.NextID())
	}
	slices.SortFunc(live, func(a, b probe) int { return int(a.id) - int(b.id) })
	p, ids := lemp.NewMatrix(r, len(live)), make([]int32, len(live))
	for col, e := range live {
		copy(p.Vec(col), e.vec)
		ids[col] = e.id
	}
	ix, err := lemp.NewWithIDs(p, ids, first)
	if err != nil {
		return nil, fmt.Errorf("server: rebuilding the snapshots as one LENGTH index: %w", err)
	}
	if mark > ix.NextID() {
		// An id at or past the largest live one was handed out and removed
		// since. Adding and removing the mark's predecessor in one batch
		// nets to nothing but raises the index's AutoID mark to the set's.
		ix, _, err = ix.WithUpdates([]lemp.ProbeUpdate{
			{Op: lemp.OpAdd, ID: mark - 1, Vec: make([]float64, r)},
			{Op: lemp.OpRemove, ID: mark - 1},
		})
		if err != nil {
			return nil, fmt.Errorf("server: keeping the AutoID mark %d: %w", mark, err)
		}
	}
	return ix, nil
}

// Indexes returns the current index as a slice of one: the form the
// benchmark/ module reads. Callers must not mutate it: views still serve
// from it.
func (s *Sharded) Indexes() []*lemp.Index { return []*lemp.Index{s.current()} }

// current returns the current index version.
func (s *Sharded) current() *lemp.Index {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix
}

// N returns the current number of live probes.
func (s *Sharded) N() int { return s.current().N() }

// R returns the vector dimension.
func (s *Sharded) R() int { return s.r }

// SidecarBytes returns the memory held by the index's int8 screening
// sidecars: every bucket's with Options.Quantize, otherwise those of the
// buckets queries have reached (none on the portable kernels).
func (s *Sharded) SidecarBytes() int { return s.current().SidecarBytes() }

// Epoch returns the current update epoch: 0 at construction, +1 per
// applied update batch.
func (s *Sharded) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Compactions returns the number of re-bucketizations triggered by update
// delta mass since construction.
func (s *Sharded) Compactions() uint64 { return s.compactions.Load() }

// CumulativeStats returns the sum of the core stats of every retrieval call
// since construction. Index state is not in it: /stats reads that from the
// current index.
func (s *Sharded) CumulativeStats() lemp.Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.cum
}

// View is an immutable snapshot of the serving state at one epoch: all
// retrievals through it see exactly the probe set of that epoch, even if
// updates are applied concurrently. Views stay valid indefinitely (old
// index versions are retained by the snapshot), but long-held views serve
// increasingly stale data.
type View struct {
	s     *Sharded
	epoch uint64
	ix    *lemp.Index
}

// CurrentView snapshots the serving state at the current epoch.
func (s *Sharded) CurrentView() *View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &View{s: s, epoch: s.epoch, ix: s.ix}
}

// Epoch returns the update epoch the view was taken at.
func (v *View) Epoch() uint64 { return v.epoch }

// N returns the live probe count at the view's epoch.
func (v *View) N() int { return v.ix.N() }

// retrieve is the serving stack's one retrieval body: key's problem —
// Row-Top-k at key.k or Above-θ at key.theta — for a whole query matrix on
// the view's index, one row per query. Top-k rows come by decreasing value,
// Above-θ rows in canonical (Query, Probe) order. The call runs under ctx —
// canceling it aborts the scan mid-bucket, and a trace it carries
// (obs.ContextWithSpan) receives the executor's scan span.
func (v *View) retrieve(ctx context.Context, q *lemp.Matrix, key batchKey) ([][]lemp.Entry, lemp.Stats, error) {
	mode := lemp.TopK(key.k)
	if !key.topk {
		mode = lemp.AboveTheta(key.theta)
	}
	s := v.s
	if s.testScanStart != nil {
		s.testScanStart(ctx)
	}
	res, err := v.ix.Retrieve(ctx, q, mode)
	if s.testScanDone != nil {
		s.testScanDone(err)
	}
	if err != nil {
		return nil, lemp.Stats{}, err
	}
	s.statsMu.Lock()
	s.cum.Add(res.Stats)
	s.statsMu.Unlock()
	if key.topk {
		return res.TopK, res.Stats, nil
	}
	rows := make([][]lemp.Entry, q.N())
	for _, e := range res.Entries {
		rows[e.Query] = append(rows[e.Query], e)
	}
	for _, row := range rows {
		lemp.SortEntries(row)
	}
	return rows, res.Stats, nil
}

// TopKCtx answers Row-Top-k for a whole query matrix on the view: retrieve
// under the name benchmark/replay.go calls.
func (v *View) TopKCtx(ctx context.Context, q *lemp.Matrix, k int) (lemp.TopKRows, lemp.Stats, error) {
	return v.retrieve(ctx, q, batchKey{topk: true, k: k})
}

// AboveThetaCtx answers Above-θ for a whole query matrix on the view (row i
// holds query i's entries): retrieve under the name benchmark/replay.go
// calls.
func (v *View) AboveThetaCtx(ctx context.Context, q *lemp.Matrix, theta float64) ([][]lemp.Entry, lemp.Stats, error) {
	return v.retrieve(ctx, q, batchKey{theta: theta})
}

// TuningCache returns an empty tuning cache that nothing in the server
// consults: the server's index runs LENGTH, which has nothing to fit. It is
// kept only because the benchmark/ module passes it to Index.Retrieve; its
// next refresh deletes it.
func (s *Sharded) TuningCache() *lemp.TuningCache { return s.tc }

// UpdateResult reports an applied update batch.
type UpdateResult struct {
	Epoch uint64  // the epoch the batch created
	IDs   []int32 // per-op affected ids (assigned ids for AutoID adds)
	LiveN int     // live probes after the batch
}

// Update applies a batch of probe mutations atomically. The index derives a
// new version copy-on-write (lemp.Index.WithUpdates), which checks every op
// by the library's rules (core.Index.Apply: unknown or duplicate id,
// dimension mismatch, non-finite coordinate, each reported under the op's
// index in the batch) before it changes anything, so a rejected batch changes
// and counts nothing. The new version is swapped in under a single epoch
// increment — a query View taken before the swap sees none of the batch, one
// taken after sees all of it. Every accepted batch advances the epoch and
// consumes its AutoIDs, even one whose net effect changes no probe (an add,
// then a remove of the same id).
//
// compactThreshold bounds the delta mass: once the batch is applied, an index
// whose DeltaMass exceeds it is re-bucketized before the swap (negative
// disables compaction). Update calls serialize with each other but not with
// queries: in-flight retrievals keep their views.
func (s *Sharded) Update(ups []lemp.ProbeUpdate, compactThreshold float64) (UpdateResult, error) {
	start := time.Now()
	s.updMu.Lock()
	defer s.updMu.Unlock()

	nix, ids, err := s.current().WithUpdates(ups)
	if err != nil {
		return UpdateResult{}, err
	}
	if compactStart := time.Now(); compactThreshold >= 0 && nix.MaybeCompact(compactThreshold) {
		s.compactions.Add(1)
		s.compactHist.ObserveDuration(time.Since(compactStart))
	}

	s.mu.Lock()
	s.ix = nix
	if len(ups) > 0 { // an empty batch is no batch, as for Index.WithUpdates
		s.epoch++
	}
	res := UpdateResult{Epoch: s.epoch, IDs: ids, LiveN: nix.N()}
	s.mu.Unlock()
	s.applyHist.ObserveDuration(time.Since(start))
	return res, nil
}
