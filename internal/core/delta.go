package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"lemp/internal/matrix"
)

// Dynamic probe maintenance. The paper's bucketization (§3.2) assumes a
// static probe matrix; a long-lived server tracking a live item catalog
// needs add/remove/update without a full rebuild. The delta layer absorbs
// small changes cheaply and defers re-bucketization:
//
//   - Every probe carries a stable external id. A freshly built index
//     assigns ids base..base+n-1 (base 0 for NewIndex); mutations address
//     probes by id and never renumber survivors.
//   - Removals of main-resident probes go into a tombstone set (ix.dead);
//     their bucket entries are skipped at verification time, so length
//     bounds stay conservative and results stay exact.
//   - Added and updated vectors live in an overlay (id → raw vector) that
//     is re-bucketized into delta buckets on every mutation batch. Delta
//     buckets are ordinary buckets — the same bucket algorithms, lazy
//     indexes and tuning apply — merged with the main buckets into the
//     decreasing-l_b scan order both retrieval kernels require.
//   - Compact folds the whole delta layer into a fresh bucketization over
//     the live probe set (amortizing the rebuild the way blocked methods
//     for slowly changing matrices amortize recomputation), preserving
//     external ids.
//
// Every mutation batch bumps the index epoch, the version number serving
// layers key caches and consistency checks on. Mutation calls are exclusive
// with everything else on the Index they mutate (see Index). Use
// WithUpdates for copy-on-write derivation when readers must keep using
// the old version while the new one is prepared.

// UpdateOp is the kind of one probe mutation.
type UpdateOp uint8

const (
	// OpAdd inserts a new probe vector. ID AutoID assigns the next free id;
	// an explicit id must not be live (re-adding a removed id is allowed).
	OpAdd UpdateOp = iota
	// OpRemove deletes a live probe by id.
	OpRemove
	// OpUpdate replaces a live probe's vector, keeping its id.
	OpUpdate
)

// String returns the wire name of the operation.
func (op UpdateOp) String() string {
	switch op {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpUpdate:
		return "update"
	}
	return fmt.Sprintf("UpdateOp(%d)", int(op))
}

// AutoID, as the ID of an OpAdd, assigns the smallest id never used by this
// index (NextID).
const AutoID int32 = -1

// MaxProbeID is the largest assignable external probe id. It is one below
// the int32 maximum so NextID (the id after the largest) always fits.
const MaxProbeID = math.MaxInt32 - 1

// ProbeUpdate is one mutation of the probe set.
type ProbeUpdate struct {
	Op  UpdateOp
	ID  int32     // external probe id; AutoID on OpAdd assigns one
	Vec []float64 // the vector for OpAdd/OpUpdate (copied on apply)
}

// Epoch returns the index's mutation epoch: 0 at build, incremented by
// every successful Apply batch. Compact does not change the epoch —
// compaction is invisible to queries.
func (ix *Index) Epoch() uint64 { return ix.epoch }

// NextID returns the id the next AutoID add would receive.
func (ix *Index) NextID() int32 { return ix.nextID }

// LiveN returns the number of live probes: main probes minus tombstones
// plus overlay entries.
func (ix *Index) LiveN() int { return ix.n - len(ix.dead) + len(ix.overlay) }

// DeltaMass returns the fraction of mutation state relative to the live
// probe count: (tombstones + overlay entries) / live probes. It grows with
// accumulated drift — tombstones waste scan work inside main buckets, and
// overlay vectors live in small, poorly tuned delta buckets — and is the
// quantity MaybeCompact thresholds on. An index whose every probe was
// updated once has delta mass 2 (n tombstones + n overlay entries).
func (ix *Index) DeltaMass() float64 {
	mass := len(ix.dead) + len(ix.overlay)
	if mass == 0 {
		return 0
	}
	live := ix.LiveN()
	if live < 1 {
		live = 1
	}
	return float64(mass) / float64(live)
}

// LiveIDs returns the external ids of all live probes in ascending order.
func (ix *Index) LiveIDs() []int32 {
	out := make([]int32, 0, ix.LiveN())
	for col := 0; col < ix.n; col++ {
		id := ix.extID(col)
		if _, gone := ix.dead[id]; !gone {
			out = append(out, id)
		}
	}
	for id := range ix.overlay {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// extID maps a main probe column to its external id.
func (ix *Index) extID(col int) int32 {
	if ix.probeIDs != nil {
		return ix.probeIDs[col]
	}
	return ix.idBase + int32(col)
}

// mainCol maps an external id to its main probe column, if the id is
// main-resident (whether or not it has been tombstoned).
func (ix *Index) mainCol(id int32) (int, bool) {
	if ix.probeIDs == nil {
		col := int(id) - int(ix.idBase)
		return col, col >= 0 && col < ix.n
	}
	col, ok := ix.mainLoc[id]
	return int(col), ok
}

// isLive reports whether the external id currently denotes a probe.
func (ix *Index) isLive(id int32) bool {
	if _, ok := ix.overlay[id]; ok {
		return true
	}
	if _, ok := ix.mainCol(id); !ok {
		return false
	}
	_, gone := ix.dead[id]
	return !gone
}

// deadSkip reports whether bucket entry lid is a tombstoned main probe.
// Delta buckets hold only live overlay entries and are never filtered.
func (ix *Index) deadSkip(b *bucket, lid int) bool {
	if b.delta || len(ix.dead) == 0 {
		return false
	}
	_, gone := ix.dead[b.ids[lid]]
	return gone
}

// AddProbe inserts a new probe vector and returns its assigned id.
func (ix *Index) AddProbe(vec []float64) (int32, error) {
	ids, err := ix.Apply([]ProbeUpdate{{Op: OpAdd, ID: AutoID, Vec: vec}})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// AddProbeWithID inserts a new probe vector under the caller's id, which
// must not be live.
func (ix *Index) AddProbeWithID(id int32, vec []float64) error {
	_, err := ix.Apply([]ProbeUpdate{{Op: OpAdd, ID: id, Vec: vec}})
	return err
}

// RemoveProbe deletes the live probe with the given id.
func (ix *Index) RemoveProbe(id int32) error {
	_, err := ix.Apply([]ProbeUpdate{{Op: OpRemove, ID: id}})
	return err
}

// UpdateProbe replaces the vector of the live probe with the given id.
func (ix *Index) UpdateProbe(id int32, vec []float64) error {
	_, err := ix.Apply([]ProbeUpdate{{Op: OpUpdate, ID: id, Vec: vec}})
	return err
}

// Apply performs a batch of probe mutations atomically: ops are validated
// and simulated in order against private copies of the mutation state, and
// the index is untouched unless every op succeeds. On success the overlay
// is re-bucketized, the scan order rebuilt, and the epoch incremented once.
// The returned slice holds, for each op, the affected external id (the
// assigned id for AutoID adds).
//
// Apply is exclusive with everything else on this Index; serving layers
// that must keep answering while updates land use WithUpdates and swap the
// derived index in atomically.
func (ix *Index) Apply(ups []ProbeUpdate) ([]int32, error) {
	if len(ups) == 0 {
		return nil, nil
	}
	ix.ensureMainLoc()

	// Simulate against copies; commit only after full success.
	dead := make(map[int32]struct{}, len(ix.dead)+len(ups))
	for id := range ix.dead {
		dead[id] = struct{}{}
	}
	overlay := make(map[int32][]float64, len(ix.overlay)+len(ups))
	for id, v := range ix.overlay {
		overlay[id] = v
	}
	nextID := ix.nextID
	live := func(id int32) bool {
		if _, ok := overlay[id]; ok {
			return true
		}
		if _, ok := ix.mainCol(id); !ok {
			return false
		}
		_, gone := dead[id]
		return !gone
	}

	ids := make([]int32, len(ups))
	for i, up := range ups {
		switch up.Op {
		case OpAdd, OpUpdate:
			if len(up.Vec) != ix.r {
				return nil, fmt.Errorf("core: update %d: vector dimension %d does not match index dimension %d", i, len(up.Vec), ix.r)
			}
			for f, x := range up.Vec {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return nil, fmt.Errorf("core: update %d: coordinate %d is %v; coordinates must be finite", i, f, x)
				}
			}
		}
		switch up.Op {
		case OpAdd:
			id := up.ID
			if id == AutoID {
				id = nextID
				if id > MaxProbeID {
					return nil, fmt.Errorf("core: update %d: probe id space exhausted", i)
				}
			} else if id < 0 || id > MaxProbeID {
				return nil, fmt.Errorf("core: update %d: invalid probe id %d", i, id)
			}
			if live(id) {
				return nil, fmt.Errorf("core: update %d: probe id %d is already live", i, id)
			}
			overlay[id] = append([]float64(nil), up.Vec...)
			if id >= nextID {
				nextID = id + 1
			}
			ids[i] = id
		case OpRemove:
			if !live(up.ID) {
				return nil, fmt.Errorf("core: update %d: probe id %d is not live", i, up.ID)
			}
			delete(overlay, up.ID)
			if _, main := ix.mainCol(up.ID); main {
				dead[up.ID] = struct{}{}
			}
			ids[i] = up.ID
		case OpUpdate:
			if !live(up.ID) {
				return nil, fmt.Errorf("core: update %d: probe id %d is not live", i, up.ID)
			}
			if _, main := ix.mainCol(up.ID); main {
				dead[up.ID] = struct{}{}
			}
			overlay[up.ID] = append([]float64(nil), up.Vec...)
			ids[i] = up.ID
		default:
			return nil, fmt.Errorf("core: update %d: unknown op %d", i, int(up.Op))
		}
	}

	ix.dead = dead
	ix.overlay = overlay
	ix.nextID = nextID
	ix.rebuildDelta()
	ix.epoch++
	return ids, nil
}

// WithUpdates derives a new index with the batch applied, leaving the
// receiver untouched (copy-on-write): the derived index shares the main
// buckets and probe matrix and carries its own delta layer. The receiver
// may keep serving retrievals while the derivation runs, and afterwards the
// two answer retrievals independently of each other (see Index).
func (ix *Index) WithUpdates(ups []ProbeUpdate) (*Index, []int32, error) {
	cp := ix.shallowClone()
	ids, err := cp.Apply(ups)
	if err != nil {
		return nil, nil, err
	}
	return cp, ids, nil
}

// shallowClone copies the index, sharing the immutable main structure
// (buckets, probe matrix, id mapping) and the current delta-layer maps —
// Apply replaces the maps wholesale, so sharing them is safe. Lock and
// lazy-once fields start fresh.
func (ix *Index) shallowClone() *Index {
	return &Index{
		id:              indexSeq.Add(1),
		layout:          ix.layout,
		opts:            ix.opts,
		r:               ix.r,
		n:               ix.n,
		probe:           ix.probe,
		idBase:          ix.idBase,
		probeIDs:        ix.probeIDs,
		mainLoc:         ix.mainLoc,
		buckets:         ix.buckets,
		scan:            ix.scan,
		maxBucket:       ix.maxBucket,
		prepTime:        ix.prepTime,
		autoScreen:      ix.autoScreen,
		pretuned:        ix.pretuned,
		frozen:          ix.frozen,
		tuneProb:        ix.tuneProb,
		tuneSample:      ix.tuneSample,
		pretunedOverlay: ix.pretunedOverlay,
		epoch:           ix.epoch,
		nextID:          ix.nextID,
		dead:            ix.dead,
		overlay:         ix.overlay,
		delta:           ix.delta,
	}
}

// ensureMainLoc builds the id → main column map for indexes with explicit
// (non-contiguous) external ids. Contiguous indexes translate
// arithmetically and never need it.
func (ix *Index) ensureMainLoc() {
	if ix.probeIDs == nil || ix.mainLoc != nil {
		return
	}
	loc := make(map[int32]int32, ix.n)
	for col, id := range ix.probeIDs {
		loc[id] = int32(col)
	}
	ix.mainLoc = loc
}

// rebuildDelta re-bucketizes the overlay into delta buckets and rebuilds
// the merged scan order and scratch sizing. Cost is O(|overlay| log
// |overlay|) per mutation batch; Compact bounds |overlay|.
func (ix *Index) rebuildDelta() {
	ix.probeLocs = nil
	if len(ix.overlay) == 0 {
		ix.delta = nil
		ix.pretunedOverlay = 0
		ix.refreshScan()
		return
	}
	ids := make([]int32, 0, len(ix.overlay))
	for id := range ix.overlay {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	m := matrix.New(ix.r, len(ids))
	for i, id := range ids {
		copy(m.Vec(i), ix.overlay[id])
	}
	ix.delta = bucketize(m, ids, ix.opts.ShrinkFactor, ix.opts.MinBucketSize, ix.bucketCap())
	for _, b := range ix.delta {
		b.delta = true
	}
	ix.attachSidecars(ix.delta)
	ix.refreshScan()
	ix.pretuneDelta()
}

// pretuneDeltaMinOverlay is the overlay size below which pretuneDelta does
// nothing: scanning a handful of vectors costs about the same under any
// per-bucket method, so fitting parameters for them would charge every
// small mutation batch a tuning pass that cannot pay for itself. Above it,
// delta buckets are big enough that a bad default method shows up in every
// retrieval until the next Compact.
const pretuneDeltaMinOverlay = 32

// pretuneDelta fits per-bucket parameters for freshly built delta buckets
// when per-call tuning is frozen, reusing the retained pretune sample.
// Without it a pretuned index's overlay runs on default parameters until the
// next Compact — heavy update churn would keep the hottest (freshest) probes
// on the least-tuned buckets indefinitely, since frozen tuning means no
// retrieval call ever re-fits them. Main buckets keep their frozen entries in
// the new fit. Results are unaffected either way (tuning only selects the
// per-bucket method); the cost, like Compact's re-freeze, lands in PrepTime
// and is bounded three ways: tiny overlays skip tuning entirely, the
// restricted tuner stops its scan at the deepest delta bucket, and re-fits
// are geometrically amortized — the overlay must grow 1.5× past the size it
// had at the last fit before another pass runs, so a churn sequence of B
// single-op batches pays O(log B) tuning passes, not B. Between fits the
// freshly rebuilt delta buckets run on defaults, which the growth bound
// keeps within a constant factor of their tuned size.
func (ix *Index) pretuneDelta() {
	if !ix.pretuned || len(ix.delta) == 0 || len(ix.overlay) < pretuneDeltaMinOverlay ||
		len(ix.overlay)*2 < ix.pretunedOverlay*3 ||
		ix.tuneSample == nil || !ix.opts.hasTunableParams() || ix.LiveN() == 0 {
		return
	}
	start := time.Now()
	ix.frozen, _ = ix.tune(newCall(nil, ix.opts, nil), prepareQueries(ix.tuneSample), ix.tuneProb, true) // never canceled
	ix.pretunedOverlay = len(ix.overlay)
	ix.prepTime += time.Since(start)
}

// refreshScan merges main and delta buckets into the decreasing-l_b order
// both retrieval kernels rely on for pruning, re-derives the scratch sizing
// bound, and re-aligns the frozen fit with the new order: a new slice in
// which the main buckets — the same buckets, in the same relative order —
// keep their entries and every delta position is untuned until pretuneDelta
// publishes a fit for it. Every call is a bucket-layout change, so the layout
// generation advances (invalidating TuningCache entries for this index).
func (ix *Index) refreshScan() {
	ix.layout++
	old, oldFit := ix.scan, ix.frozen
	if len(ix.delta) == 0 {
		ix.scan = ix.buckets
	} else {
		scan := make([]*bucket, 0, len(ix.buckets)+len(ix.delta))
		i, j := 0, 0
		for i < len(ix.buckets) && j < len(ix.delta) {
			if ix.buckets[i].lb >= ix.delta[j].lb {
				scan = append(scan, ix.buckets[i])
				i++
			} else {
				scan = append(scan, ix.delta[j])
				j++
			}
		}
		scan = append(scan, ix.buckets[i:]...)
		scan = append(scan, ix.delta[j:]...)
		ix.scan = scan
	}
	if oldFit != nil {
		ix.frozen = make([]tunedParam, len(ix.scan))
	}
	ix.maxBucket = 0
	oi := 0
	for bi, b := range ix.scan {
		if b.size() > ix.maxBucket {
			ix.maxBucket = b.size()
		}
		if oldFit != nil && !b.delta {
			for old[oi] != b {
				oi++
			}
			ix.frozen[bi] = oldFit[oi]
		}
	}
}

// bucketCap resolves Options.CacheBytes into the per-bucket size cap
// bucketize enforces.
func (ix *Index) bucketCap() int { return bucketCapFor(ix.opts, ix.r) }

// bucketCapFor is bucketCap without an index, for callers (ScanCostWeights)
// that model a bucketization before building one.
func bucketCapFor(opts Options, r int) int {
	if opts.CacheBytes <= 0 {
		return 0
	}
	maxSize := opts.CacheBytes / bucketBytes(r)
	if maxSize < opts.MinBucketSize {
		maxSize = opts.MinBucketSize
	}
	return maxSize
}

// mutated reports whether any delta-layer state exists.
func (ix *Index) mutated() bool { return len(ix.dead) > 0 || len(ix.overlay) > 0 }

// MaybeCompact compacts when the delta mass exceeds the threshold,
// reporting whether it did. Serving layers call this after every update
// batch: small drift stays in the cheap delta layer, accumulated drift
// pays one re-bucketization and returns the index to its tuned, tombstone-
// free shape.
func (ix *Index) MaybeCompact(threshold float64) bool {
	if !ix.mutated() || ix.DeltaMass() <= threshold {
		return false
	}
	ix.Compact()
	return true
}

// Compact folds the delta layer into the main structure: the live probe
// set is materialized (external ids preserved) and re-bucketized per §3.2,
// and tombstones, overlay and delta buckets are cleared. Queries before
// and after a Compact return identical results — only the internal layout
// changes — so the epoch is not advanced. If per-call tuning was frozen by
// a Pretune method, the fitted per-bucket parameters are re-frozen on the
// retained tuning sample — which snapshots persist, so a snapshot-restored
// pretuned index re-freezes after Compact exactly like the original.
func (ix *Index) Compact() {
	if !ix.mutated() {
		return
	}
	start := time.Now()
	liveN := ix.LiveN()
	probe := matrix.New(ix.r, liveN)
	ids := make([]int32, 0, liveN)
	for col := 0; col < ix.n; col++ {
		id := ix.extID(col)
		if _, gone := ix.dead[id]; gone {
			continue
		}
		copy(probe.Vec(len(ids)), ix.probe.Vec(col))
		ids = append(ids, id)
	}
	overlayIDs := make([]int32, 0, len(ix.overlay))
	for id := range ix.overlay {
		overlayIDs = append(overlayIDs, id)
	}
	sort.Slice(overlayIDs, func(a, b int) bool { return overlayIDs[a] < overlayIDs[b] })
	for _, id := range overlayIDs {
		copy(probe.Vec(len(ids)), ix.overlay[id])
		ids = append(ids, id)
	}

	ix.probe = probe
	ix.n = liveN
	ix.setIDs(ids)
	ix.dead = nil
	ix.overlay = nil
	ix.delta = nil
	ix.pretunedOverlay = 0
	ix.probeLocs = nil
	ix.frozen = nil // fitted to buckets that no longer exist
	ix.buckets = bucketize(probe, ix.explicitIDs(), ix.opts.ShrinkFactor, ix.opts.MinBucketSize, ix.bucketCap())
	ix.attachSidecars(ix.buckets)
	ix.refreshScan()
	ix.prepTime += time.Since(start)
	if ix.pretuned && ix.tuneSample != nil && liveN > 0 && ix.opts.hasTunableParams() {
		tuneStart := time.Now()
		ix.frozen, _ = ix.tune(newCall(nil, ix.opts, nil), prepareQueries(ix.tuneSample), ix.tuneProb, false) // never canceled
		ix.prepTime += time.Since(tuneStart)
	}
}

// setIDs installs a column → external id mapping, using the compact
// arithmetic representation when the ids form a contiguous run.
func (ix *Index) setIDs(ids []int32) {
	ix.mainLoc = nil
	if len(ids) == 0 {
		ix.idBase, ix.probeIDs = 0, nil
		return
	}
	dense := true
	for i, id := range ids {
		if id != ids[0]+int32(i) {
			dense = false
			break
		}
	}
	if dense {
		ix.idBase, ix.probeIDs = ids[0], nil
		return
	}
	ix.idBase, ix.probeIDs = 0, ids
	ix.ensureMainLoc()
}

// ProbeIDs returns the external ids of the probe matrix columns in column
// order (nil = identity). Delta-layer state is not reflected.
func (ix *Index) ProbeIDs() []int32 { return ix.explicitIDs() }

// explicitIDs materializes the column → external id mapping, or returns
// nil when ids are the column numbers themselves.
func (ix *Index) explicitIDs() []int32 {
	if ix.probeIDs != nil {
		return ix.probeIDs
	}
	if ix.idBase == 0 {
		return nil
	}
	ids := make([]int32, ix.n)
	for col := range ids {
		ids[col] = ix.idBase + int32(col)
	}
	return ids
}
