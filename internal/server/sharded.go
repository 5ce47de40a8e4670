// Package server turns the lemp library into a long-lived query service:
// it shards a probe matrix across independent LEMP indexes, micro-batches
// concurrent HTTP requests into whole-matrix retrieval calls (the batch
// interface Retrieve already exposes), applies live probe updates with
// epoch-consistent snapshots, and reports cumulative retrieval statistics.
package server

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lemp"
	"lemp/internal/core"
	"lemp/internal/obs"
	"lemp/internal/vecmath"
)

// Sharded partitions a probe matrix into S shards under a placement
// strategy, each backed by its own lemp.Index built directly in the global
// probe-id space — the shard indexes are the only record of which shard
// holds an id — and
// answers whole-batch retrievals by fanning the query matrix across all
// shards concurrently and merging per-shard results: a k-way heap merge
// for Row-Top-k, concatenation for Above-θ. The shard count is fixed for
// the set's lifetime; re-partitioning is a fresh build.
//
// The probe set is mutable: Update applies a batch of add/remove/update
// ops by deriving new per-shard indexes copy-on-write (lemp.WithUpdates)
// and swapping them in atomically under one epoch increment. Queries run
// against a View — an immutable snapshot of (epoch, shard indexes) taken
// at dispatch — so every retrieval sees exactly one epoch even while
// updates land, and no response can mix pre- and post-update probe
// vectors.
//
// Sharded is safe for concurrent use: retrievals on one shard, on any of its
// index versions, run beside each other (see lemp.Index).
type Sharded struct {
	r int

	// mu guards the swappable serving state: the shard indexes, the epoch,
	// the live probe count, and the per-shard estimated scan costs. The
	// index and cost slices are replaced wholesale on every commit, never
	// mutated in place, so a View may hold them without the lock.
	mu     sync.RWMutex
	epoch  uint64
	n      int           // live probes across all shards
	shards []*lemp.Index // current version of every shard
	costs  []float64     // per-shard estimated scan cost

	// updMu serializes Update calls; nextID is only accessed while it is
	// held.
	updMu  sync.Mutex
	nextID int32 // next auto-assigned probe id

	// tc shares fitted per-bucket tuning parameters across all retrieval
	// calls of all shards: the first call per (problem, shard version)
	// pays one sample-tuning pass, every repeat restores it. Keys embed
	// the shard index instance and epoch, so entries never leak across
	// epochs or shards.
	tc *lemp.TuningCache

	statsMu sync.Mutex
	cum     lemp.Stats // cumulative stats across all retrieval calls

	// compactions counts shard re-bucketizations triggered by update
	// delta mass (exported as lemp_compactions_total).
	compactions atomic.Uint64

	// scanned counts shard retrievals dispatched (exported as
	// lemp_shards_scanned_total).
	scanned atomic.Uint64

	// Observability hooks, wired once by the server before serving and
	// nil for library use (both are nil-safe at the call sites).
	// scanHist[i] observes shard i's per-call retrieval time, mergeHist
	// the cross-shard merge time.
	scanHist  []*obs.Histogram
	mergeHist *obs.Histogram
	// applyHist observes the wall time of each committed Update, compactHist
	// that of each shard compaction inside one.
	applyHist   *obs.Histogram
	compactHist *obs.Histogram

	// Test instrumentation: when set, testShardStart is called as each
	// shard retrieval begins (with the retrieval context, so a test can
	// hold shards until a cancellation lands) and testShardDone as it
	// returns with its error, making mid-batch cancellation observable.
	testShardStart func(ctx context.Context, shard int)
	testShardDone  func(shard int, err error)
}

// NewShardedPlaced builds nShards LEMP indexes over probe (sharing its
// storage where the placement keeps columns contiguous) under an explicit
// placement strategy: equal-count contiguous ranges (PlaceRange: shard i
// indexes probes [i·n/S, (i+1)·n/S), sizes differing by at most one) or
// direction clusters (PlaceCluster, seeded by opts.Seed). Every shard
// receives the same options. ids[i] names probe column i in the global id
// space (nil assigns 0..n-1); re-sharding a previously mutated catalog
// passes them so probe ids survive the rebuild instead of being renumbered.
// The shards build concurrently; a failure names the lowest failing shard.
func NewShardedPlaced(probe *lemp.Matrix, ids []int32, nShards int, opts lemp.Options, kind Placement) (*Sharded, error) {
	n := probe.N()
	if nShards < 1 {
		return nil, fmt.Errorf("server: shard count %d must be positive", nShards)
	}
	if ids != nil && len(ids) != n {
		return nil, fmt.Errorf("server: %d probe ids for %d probes", len(ids), n)
	}
	if nShards > n {
		nShards = n
	}
	if nShards == 0 {
		return nil, fmt.Errorf("server: probe matrix is empty")
	}
	parts, err := partitionProbes(kind, probe, ids, nShards, opts.Seed)
	if err != nil {
		return nil, err
	}
	ixs, err := eachShard(len(parts), func(i int) (*lemp.Index, error) {
		ix, err := lemp.NewWithIDs(parts[i].probe, parts[i].ids, opts)
		if err != nil {
			return nil, fmt.Errorf("server: building shard %d: %w", i, err)
		}
		return ix, nil
	})
	if err != nil {
		return nil, err
	}
	return assemble(ixs), nil
}

// eachShard runs shard(i) for every i in [0, n), up to GOMAXPROCS of them
// at a time, and returns their indexes in shard order, or the error of the
// lowest-numbered shard that failed once all have returned. Builds and
// restores are independent per shard, so their wall time approaches the
// slowest shard's rather than the sum.
func eachShard(n int, shard func(i int) (*lemp.Index, error)) ([]*lemp.Index, error) {
	ixs, errs := make([]*lemp.Index, n), make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0)) // a counting semaphore
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			ixs[i], errs[i] = shard(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ixs, nil
}

// assemble wraps a shard set, in shard order, as a Sharded at epoch 0: its
// live probe count, the least next AutoID id none of its shards has used,
// and every shard's estimated scan cost.
func assemble(ixs []*lemp.Index) *Sharded {
	s := &Sharded{r: ixs[0].R(), shards: ixs, costs: make([]float64, len(ixs)), tc: lemp.NewTuningCache()}
	for i, ix := range ixs {
		s.n += ix.N()
		s.nextID = max(s.nextID, ix.NextID())
		s.costs[i] = ix.EstimatedCost()
	}
	return s
}

// NewShardedFromIndexes assembles a Sharded from pre-built indexes —
// typically loaded from per-shard snapshots — in shard order. The indexes'
// probe ids must be globally unique — an id live in two shards is an error
// naming both — and are adopted as the serving id space. Empty shards are
// legal — probe updates can drain a shard, and its snapshot must still
// restore (later adds refill it).
func NewShardedFromIndexes(ixs []*lemp.Index) (*Sharded, error) {
	if len(ixs) == 0 {
		return nil, fmt.Errorf("server: no shard indexes")
	}
	// Every live id of every shard as id<<32 | shard: sorted, a collision
	// between two shards is a pair of neighbours with the same high half.
	var owned []int64
	for i, ix := range ixs {
		if ix.R() != ixs[0].R() {
			return nil, fmt.Errorf("server: shard %d has dimension %d, shard 0 has %d", i, ix.R(), ixs[0].R())
		}
		for _, id := range ix.LiveIDs() {
			owned = append(owned, int64(id)<<32|int64(i))
		}
	}
	slices.Sort(owned)
	for j := 1; j < len(owned); j++ {
		if id := owned[j] >> 32; id == owned[j-1]>>32 {
			return nil, fmt.Errorf("server: probe id %d appears in shards %d and %d", id, int32(owned[j-1]), int32(owned[j]))
		}
	}
	return assemble(slices.Clone(ixs)), nil
}

// NewShardedFromSnapshot rebuilds a Sharded from one LEMPIDX1 snapshot per
// shard (in shard order) through lemp.LoadIndex, which re-derives each
// shard's buckets and skips the tuning and the list builds. Snapshots written by Server.WriteSnapshotsWith restore an
// identical shard layout, whatever placement built it. The shards restore
// concurrently, each reading only its own reader; a failure names the
// lowest failing shard.
func NewShardedFromSnapshot(snapshots []io.Reader, opts lemp.LoadOptions) (*Sharded, error) {
	ixs, err := eachShard(len(snapshots), func(i int) (*lemp.Index, error) {
		ix, err := lemp.LoadIndex(snapshots[i], opts)
		if err != nil {
			return nil, fmt.Errorf("server: loading shard %d snapshot: %w", i, err)
		}
		return ix, nil
	})
	if err != nil {
		return nil, err
	}
	return NewShardedFromIndexes(ixs)
}

// rePlaced builds a fresh shard set over s's live probes: nShards shards
// under kind, with the options of s's first shard. The probes are gathered
// in ascending id order, so the new layout depends on the live probe set
// alone, not on s's. An id s used and then removed is in no new shard, so
// the new set keeps s's AutoID mark and never hands it out again. An empty
// catalog returns s itself. It runs before s serves: nothing else reads or
// updates s meanwhile.
func (s *Sharded) rePlaced(nShards int, kind Placement) (*Sharded, error) {
	cur := s.Indexes()
	mats := make([]*lemp.Matrix, len(cur))
	idss := make([][]int32, len(cur))
	total := 0
	for i, ix := range cur {
		mats[i], idss[i] = ix.LiveProbes()
		total += len(idss[i])
	}
	if total == 0 {
		return s, nil
	}
	type ref struct {
		shard, col int
	}
	refs := make([]ref, 0, total)
	for i, ids := range idss {
		for c := range ids {
			refs = append(refs, ref{i, c})
		}
	}
	sort.Slice(refs, func(a, b int) bool {
		return idss[refs[a].shard][refs[a].col] < idss[refs[b].shard][refs[b].col]
	})
	probe := lemp.NewMatrix(s.r, total)
	ids := make([]int32, total)
	for j, rf := range refs {
		copy(probe.Vec(j), mats[rf.shard].Vec(rf.col))
		ids[j] = idss[rf.shard][rf.col]
	}
	fresh, err := NewShardedPlaced(probe, ids, nShards, cur[0].Options(), kind)
	if err != nil {
		return nil, err
	}
	fresh.nextID = max(fresh.nextID, s.nextID)
	return fresh, nil
}

// Indexes returns the current per-shard indexes in shard order. Callers
// must not mutate them: views still serve from them.
func (s *Sharded) Indexes() []*lemp.Index {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.shards)
}

// N returns the current number of live probes across all shards.
func (s *Sharded) N() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// R returns the vector dimension.
func (s *Sharded) R() int { return s.r }

// NumShards returns the number of shards.
func (s *Sharded) NumShards() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.shards)
}

// SidecarBytes returns the memory held by the int8 screening sidecars
// across all shards: every bucket's with Options.Quantize, otherwise those of
// the buckets queries have reached (none on the portable kernels).
func (s *Sharded) SidecarBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, ix := range s.shards {
		total += ix.SidecarBytes()
	}
	return total
}

// ListBytes returns the memory held by the sorted-list indexes across all
// shards: it grows with the buckets tuning passes observe and coordinate
// methods scan.
func (s *Sharded) ListBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, ix := range s.shards {
		total += ix.ListBytes()
	}
	return total
}

// Epoch returns the current update epoch: 0 at construction, +1 per
// applied update batch.
func (s *Sharded) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Compactions returns the number of shard re-bucketizations triggered by
// update delta mass since construction.
func (s *Sharded) Compactions() uint64 { return s.compactions.Load() }

// ShardsScanned returns the cumulative number of per-shard retrievals
// dispatched across all batches since construction.
func (s *Sharded) ShardsScanned() uint64 { return s.scanned.Load() }

// CostSkew reports the current placement balance as the max/mean ratio of
// per-shard estimated scan cost: 1 is perfectly balanced, S means one
// shard carries the whole catalog. Degenerate catalogs (no cost mass)
// report 1.
func (s *Sharded) CostSkew() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.costs) == 0 {
		return 1
	}
	max, sum := 0.0, 0.0
	for _, c := range s.costs {
		if c > max {
			max = c
		}
		sum += c
	}
	if sum <= 0 {
		return 1
	}
	return max * float64(len(s.costs)) / sum
}

// CumulativeStats returns the sum of the core stats of every retrieval call
// (all shards, all batches) since construction. A call counts its query rows
// once, however many shards scanned them. Index state is not in it: /stats
// reads that from the current shards.
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
	n     int
	ixs   []*lemp.Index
}

// CurrentView snapshots the serving state at the current epoch.
func (s *Sharded) CurrentView() *View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &View{s: s, epoch: s.epoch, n: s.n, ixs: s.shards}
}

// Epoch returns the update epoch the view was taken at.
func (v *View) Epoch() uint64 { return v.epoch }

// N returns the live probe count at the view's epoch.
func (v *View) N() int { return v.n }

// fanOut runs the spec's retrieval for q on every shard of the view
// concurrently and returns the per-shard results with their accumulated
// stats, or the first error encountered. The last shard scans on the
// calling goroutine and each other shard on one of its own. Nothing orders
// calls on one shard: fan-outs of different views or batch keys overlap on
// it. The context is passed down into every shard retrieval, so canceling
// it — client disconnect, request deadline — aborts all shard scans
// mid-bucket.
//
// When ctx carries a trace (obs.ContextWithSpan), each shard opens its own
// shard-tagged span and passes it down, so the core executor hangs its
// tune/scan phase spans under the right shard. Per-shard wall time feeds
// scanHist[i] when the server has wired it.
func (v *View) fanOut(ctx context.Context, q *lemp.Matrix, spec *lemp.Spec) ([]*lemp.Result, lemp.Stats, error) {
	v.s.scanned.Add(uint64(len(v.ixs)))
	f := &shardFan{v: v, q: q, spec: spec, parts: make([]*lemp.Result, len(v.ixs))}
	f.tr, f.parent = obs.SpanFrom(ctx)
	last := len(v.ixs) - 1
	f.wg.Add(last)
	for i := range last {
		go func() {
			defer f.wg.Done()
			f.scan(ctx, i)
		}()
	}
	f.scan(ctx, last)
	f.wg.Wait()
	// Every shard saw the same queries: the call answered q.N() of them
	// once, however many shards scanned them.
	f.call.Queries = q.N()
	v.s.statsMu.Lock()
	v.s.cum.Add(f.call)
	v.s.statsMu.Unlock()
	return f.parts, f.call, f.first
}

// shardFan is one View.fanOut call's shared state: one allocation for what
// every shard's scan reads and fills.
type shardFan struct {
	v      *View
	q      *lemp.Matrix
	spec   *lemp.Spec
	tr     *obs.Trace
	parent obs.SpanRef
	wg     sync.WaitGroup

	mu    sync.Mutex // guards the fields below
	parts []*lemp.Result
	call  lemp.Stats
	first error
}

// scan runs shard i's retrieval and records its result.
func (f *shardFan) scan(ctx context.Context, i int) {
	s := f.v.s
	ref := obs.NoSpan
	if f.tr != nil {
		ref = f.tr.StartShard("shard", f.parent, i)
		ctx = obs.ContextWithSpan(ctx, f.tr, ref)
	}
	start := time.Now()
	if s.testShardStart != nil {
		s.testShardStart(ctx, i)
	}
	res, err := f.v.ixs[i].RetrieveSpec(ctx, f.q, f.spec)
	if s.testShardDone != nil {
		s.testShardDone(i, err)
	}
	f.tr.End(ref)
	if i < len(s.scanHist) {
		s.scanHist[i].ObserveDuration(time.Since(start))
	}
	f.mu.Lock()
	if err == nil {
		f.parts[i] = res
		f.call.Add(res.Stats)
	} else if f.first == nil {
		f.first = err
	}
	f.mu.Unlock()
}

// retrieve is the serving stack's one sharded retrieval body: key's problem
// — Row-Top-k at key.k or Above-θ at key.theta; key.epoch is not read, the
// view is the epoch — for a whole query matrix across the shards of the
// view, merged into one row per query. Top-k rows are the k-way merge of the
// shards' rows, by decreasing value; Above-θ rows gather the shards' entries
// in canonical (Query, Probe) order, the grouping batching works in. One spec
// serves every shard of the call (and validates once); shard retrievals run
// under ctx and share the Sharded's tuning cache, so a repeated (k | θ,
// epoch) pays sample tuning only on its first call.
func (v *View) retrieve(ctx context.Context, q *lemp.Matrix, key batchKey) ([][]lemp.Entry, lemp.Stats, error) {
	mode := lemp.TopK(key.k)
	if !key.topk {
		mode = lemp.AboveTheta(key.theta)
	}
	spec, err := lemp.NewSpec(mode, lemp.WithTuningCache(v.s.tc))
	if err != nil {
		return nil, lemp.Stats{}, err
	}
	parts, st, err := v.fanOut(ctx, q, spec)
	if err != nil {
		return nil, st, err
	}
	tr, parent := obs.SpanFrom(ctx)
	ref := tr.Start("merge", parent)
	start := time.Now()
	var rows [][]lemp.Entry
	if key.topk {
		tops := make([]lemp.TopKRows, len(parts))
		for i, p := range parts {
			tops[i] = p.TopK
		}
		rows = lemp.MergeTopK(key.k, tops...)
	} else {
		rows = make([][]lemp.Entry, q.N())
		for _, p := range parts {
			for _, e := range p.Entries {
				rows[e.Query] = append(rows[e.Query], e)
			}
		}
		for _, row := range rows {
			lemp.SortEntries(row)
		}
	}
	tr.End(ref)
	if v.s.mergeHist != nil {
		v.s.mergeHist.ObserveDuration(time.Since(start))
	}
	return rows, st, nil
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

// TuningCache returns the cache of fitted tuning parameters shared by all
// shard retrievals (introspection and tests).
func (s *Sharded) TuningCache() *lemp.TuningCache { return s.tc }

// UpdateResult reports an applied update batch.
type UpdateResult struct {
	Epoch uint64  // the epoch the batch created
	IDs   []int32 // per-op affected ids (assigned ids for AutoID adds)
	LiveN int     // live probes after the batch
}

// Update applies a batch of probe mutations atomically across all shards.
// core.PlanUpdates checks every op (unknown or duplicate id, dimension
// mismatch, non-finite coordinate, each reported under the op's index in the
// batch) before any shard derives anything, so a rejected batch changes and
// counts nothing. Update routes the batch's net effect: an id live before
// the batch goes to the shard whose index holds it, and each new id, in op
// order, to the shard with the least estimated scan cost. Each affected
// shard derives a new index copy-on-write, and all new indexes are swapped
// in under a single epoch increment — a query View taken before the swap
// sees none of the batch, one taken after sees all of it. Every accepted
// batch advances the epoch and consumes its AutoIDs, even one whose net
// effect touches no shard (an add, then a remove of the same id).
//
// compactThreshold bounds per-shard delta mass: after applying the batch,
// any shard whose DeltaMass exceeds it is re-bucketized before the swap
// (negative disables compaction). Update calls serialize with each other
// but not with queries: in-flight retrievals keep their views.
func (s *Sharded) Update(ups []lemp.ProbeUpdate, compactThreshold float64) (UpdateResult, error) {
	start := time.Now()
	s.updMu.Lock()
	defer s.updMu.Unlock()

	// The shard holding an id is the one whose index has it live: ids are
	// unique across shards.
	cur := s.Indexes()
	holder := func(id int32) int {
		for i, ix := range cur {
			if ix.Has(id) {
				return i
			}
		}
		return -1
	}
	// Every add goes to the shard with the least estimated scan cost, under
	// every placement: the fan-out waits on its slowest shard, and
	// EstimatedCost models that shard's work. addCost tracks the batch's
	// own growth, the new vector's length approximating its bucket's l_b.
	s.mu.RLock()
	baseCosts := s.costs
	s.mu.RUnlock()
	addCost := make([]float64, len(cur))
	perShard := make([][]lemp.ProbeUpdate, len(cur))
	ids, nextID, err := core.PlanUpdates(ups, s.r, s.nextID, func(id int32) bool { return holder(id) >= 0 }, func(up lemp.ProbeUpdate) {
		sh := 0
		if up.Op != lemp.OpAdd {
			sh = holder(up.ID)
		} else {
			for i := 1; i < len(baseCosts); i++ {
				if baseCosts[i]+addCost[i] < baseCosts[sh]+addCost[sh] {
					sh = i
				}
			}
			addCost[sh] += vecmath.Norm(up.Vec)
		}
		perShard[sh] = append(perShard[sh], up)
	})
	if err != nil {
		return UpdateResult{}, err
	}

	// Derive the new index versions copy-on-write. Nothing is visible yet;
	// the plan above validated every op, so no shard refuses its share.
	newIxs := make([]*lemp.Index, len(cur))
	changed := false
	compacted := uint64(0)
	for i, ops := range perShard {
		if len(ops) == 0 {
			continue
		}
		nix, _, err := cur[i].WithUpdates(ops)
		if err != nil {
			return UpdateResult{}, err
		}
		if compactStart := time.Now(); compactThreshold >= 0 && nix.MaybeCompact(compactThreshold) {
			compacted++
			if s.compactHist != nil {
				s.compactHist.ObserveDuration(time.Since(compactStart))
			}
		}
		newIxs[i] = nix
		changed = true
	}

	// Refresh the estimated costs of the shards the batch touched, still
	// outside the serving lock.
	var newCosts []float64
	if changed {
		newCosts = append([]float64(nil), baseCosts...)
		for i, nix := range newIxs {
			if nix != nil {
				newCosts[i] = nix.EstimatedCost()
			}
		}
	}

	// Commit: swap all affected shards under one epoch increment.
	s.mu.Lock()
	if changed {
		s.n = 0
		for i, ix := range cur {
			if newIxs[i] == nil {
				newIxs[i] = ix
			}
			s.n += newIxs[i].N()
		}
		s.shards = newIxs
		s.costs = newCosts
	}
	if len(ups) > 0 { // an empty batch is no batch, as for Index.Apply
		s.epoch++
		s.nextID = nextID
	}
	res := UpdateResult{Epoch: s.epoch, IDs: ids, LiveN: s.n}
	s.mu.Unlock()
	s.compactions.Add(compacted)
	if s.applyHist != nil {
		s.applyHist.ObserveDuration(time.Since(start))
	}
	return res, nil
}
