package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"lemp/internal/matrix"
)

// Dynamic probe maintenance. The paper's bucketization (§3.2) assumes a
// static probe matrix; a long-lived server tracking a live item catalog
// needs add/remove/update without a full rebuild. The delta layer absorbs a
// batch in O(batch · r + buckets) time and allocation — whatever the probe
// count and however much the layer already holds — and defers
// re-bucketization:
//
//   - Every probe carries a stable external id. A freshly built index
//     assigns ids base..base+n-1 (base 0 for NewIndex); mutations address
//     probes by id and never renumber survivors.
//   - The vectors a batch adds or rewrites become one delta run: an
//     immutable, id-sorted group of raw vectors with its own bucketization.
//     Its buckets are ordinary buckets — the same bucket algorithms, lazy
//     indexes and tuning apply — merged with the main buckets into the
//     decreasing-l_b scan order both retrieval kernels require.
//   - Runs merge geometrically (the logarithmic method): a run stays while
//     it holds at least twice the live vectors of everything newer and at
//     least half of its own are live; otherwise it and every newer run are
//     rewritten into one, dead entries dropped. So there are
//     O(log(overlay / batch)) runs and a vector is re-copied O(log) times.
//   - A removed or rewritten probe, main- or run-resident, is a tombstone:
//     one bit, addressed (bucket, lid), in a bitset the index version holds
//     per scan bucket beside a dead count. Tombstoned entries are skipped at
//     verification time, so length bounds stay conservative and results
//     stay exact.
//   - Sharing: a bucket, run or bitset reachable from a published index is
//     never written again. A batch copies the bitsets of the buckets it
//     touches and nothing else; every bucket it does not retire is carried
//     to the derived index by pointer, with its lazily built lists and
//     sidecar and its entry in a frozen fit.
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

// CheckVector is the vector half of a batch's validation, for op i of its
// batch against an index of dimension r: an add or a rewrite carries r
// finite coordinates. Apply runs it on every op; a serving layer that plans
// a batch before any index sees it runs the same check there.
func (up ProbeUpdate) CheckVector(i, r int) error {
	if up.Op != OpAdd && up.Op != OpUpdate {
		return nil
	}
	if len(up.Vec) != r {
		return fmt.Errorf("core: update %d: vector dimension %d does not match index dimension %d", i, len(up.Vec), r)
	}
	for f, x := range up.Vec {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("core: update %d: coordinate %d is %v; coordinates must be finite", i, f, x)
		}
	}
	return nil
}

// tombs is the tombstone state of one scan bucket in one index version: a
// bit per dead lid (nil while there is none) and their count.
type tombs struct {
	bits []uint64
	n    int32
}

// isDead reads one entry of a tombstone state aligned with a scan order;
// nil means nothing was ever tombstoned.
func isDead(dead []tombs, bi, lid int) bool {
	return dead != nil && dead[bi].bits != nil && dead[bi].bits[lid>>6]&(1<<(uint(lid)&63)) != 0
}

// deadSkip reports whether entry lid of scan bucket bi is tombstoned.
func (ix *Index) deadSkip(bi, lid int) bool { return isDead(ix.dead, bi, lid) }

// probeLoc addresses one bucket entry inside a bucketization: the bucket's
// position in Index.buckets or deltaRun.buckets, and the lid.
type probeLoc struct{ bucket, lid int32 }

// locate inverts a bucketization of n probes: entry col(id) of the result
// is where the probe with that id sits.
func locate(buckets []*bucket, n int, col func(id int32) int) []probeLoc {
	loc := make([]probeLoc, n)
	for bi, b := range buckets {
		for lid, id := range b.ids {
			loc[col(id)] = probeLoc{int32(bi), int32(lid)}
		}
	}
	return loc
}

// locator is the location index of one main structure, column → (main
// bucket, lid): 8 bytes per probe, built by the first lookup that reaches a
// main probe after a build, restore or Compact and shared by every relative
// derived from that structure.
type locator struct {
	once sync.Once
	loc  []probeLoc
}

func (ix *Index) mainLocs() []probeLoc {
	ix.mainAt.once.Do(func() {
		ix.mainAt.loc = locate(ix.buckets, ix.n, func(id int32) int {
			col, _ := ix.mainCol(id)
			return col
		})
	})
	return ix.mainAt.loc
}

// deltaRun is one immutable run of the overlay: the vectors some batches
// added or rewrote, by ascending id, and their bucketization.
type deltaRun struct {
	ids     []int32
	vecs    *matrix.Matrix // raw vectors; column i belongs to ids[i]
	buckets []*bucket
	loc     []probeLoc // by column
}

// runRef is a run as one index version holds it: live counts the entries
// that version has not tombstoned.
type runRef struct {
	*deltaRun
	live int
}

// liveVec is one live probe: its id and its raw vector, aliased.
type liveVec struct {
	id  int32
	vec []float64
}

// materialize copies probes into a fresh matrix, one column each in the order
// given, and lists their ids beside it.
func (ix *Index) materialize(probes []liveVec) (*matrix.Matrix, []int32) {
	m, ids := matrix.New(ix.r, len(probes)), make([]int32, len(probes))
	for i, e := range probes {
		ids[i] = e.id
		copy(m.Vec(i), e.vec)
	}
	return m, ids
}

// newRun builds the run holding entries, which it sorts by id.
func (ix *Index) newRun(entries []liveVec) runRef {
	sort.Slice(entries, func(a, b int) bool { return entries[a].id < entries[b].id })
	run := &deltaRun{}
	run.vecs, run.ids = ix.materialize(entries)
	run.buckets = bucketize(run.vecs, run.ids, ix.opts.ShrinkFactor, ix.opts.MinBucketSize, ix.bucketCap())
	for _, b := range run.buckets {
		b.delta = true
	}
	ix.attachSidecars(run.buckets)
	run.loc = locate(run.buckets, len(run.ids), func(id int32) int {
		i, _ := slices.BinarySearch(run.ids, id)
		return i
	})
	return runRef{run, len(entries)}
}

// Epoch returns the index's mutation epoch: 0 at build, incremented by
// every successful Apply batch. Compact does not change the epoch —
// compaction is invisible to queries.
func (ix *Index) Epoch() uint64 { return ix.epoch }

// NextID returns the id the next AutoID add would receive.
func (ix *Index) NextID() int32 { return ix.nextID }

// LiveN returns the number of live probes: main probes minus tombstones
// plus live overlay vectors.
func (ix *Index) LiveN() int { return ix.n - ix.deadMain + ix.overlayN }

// DeltaMass returns the fraction of mutation state relative to the live
// probe count: (main tombstones + live overlay vectors) / live probes. It
// grows with accumulated drift — tombstones waste scan work inside main
// buckets, and overlay vectors live in small delta buckets — and is the
// quantity MaybeCompact thresholds on. An index whose every probe was
// updated once has delta mass 2 (n tombstones + n overlay vectors).
func (ix *Index) DeltaMass() float64 {
	mass := ix.deadMain + ix.overlayN
	if mass == 0 {
		return 0
	}
	return float64(mass) / float64(max(ix.LiveN(), 1))
}

// LiveIDs returns the external ids of all live probes in ascending order.
func (ix *Index) LiveIDs() []int32 {
	out := make([]int32, 0, ix.LiveN())
	if ix.deadMain == 0 {
		// By column the ids are as good as sorted already, a tenth of the
		// sort below: the case of every shard a server is set up over.
		for col := 0; col < ix.n; col++ {
			out = append(out, ix.extID(col))
		}
	}
	for bi, b := range ix.scan {
		if !b.delta && ix.deadMain == 0 {
			continue
		}
		for lid, id := range b.ids {
			if !ix.deadSkip(bi, lid) {
				out = append(out, id)
			}
		}
	}
	slices.Sort(out)
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

// scanPos returns the scan position of a bucket of this index version.
func (ix *Index) scanPos(b *bucket) int {
	i := sort.Search(len(ix.scan), func(i int) bool { return ix.scan[i].lb <= b.lb })
	for ix.scan[i] != b {
		i++
	}
	return i
}

// find locates the live probe with the given id: the run that holds it (-1
// for the main structure), its bucket's scan position and its lid. An id
// has at most one live entry, whatever dead ones older runs and the main
// structure still carry.
func (ix *Index) find(id int32) (run, bi, lid int, ok bool) {
	for run = len(ix.runs) - 1; run >= 0; run-- {
		p := ix.runs[run]
		if i, hit := slices.BinarySearch(p.ids, id); hit {
			l := p.loc[i]
			if bi, lid = ix.scanPos(p.buckets[l.bucket]), int(l.lid); !ix.deadSkip(bi, lid) {
				return run, bi, lid, true
			}
		}
	}
	col, main := ix.mainCol(id)
	if !main {
		return -1, 0, 0, false
	}
	l := ix.mainLocs()[col]
	bi, lid = ix.scanPos(ix.buckets[l.bucket]), int(l.lid)
	return -1, bi, lid, !ix.deadSkip(bi, lid)
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
// and simulated in order against the batch's own effects over the untouched
// index, which changes only if every op succeeds. On success each live entry
// the batch removes or rewrites becomes a tombstone, the vectors it leaves
// live become a new run — merged with older runs by the rule in the header
// — the scan order is rebuilt and the epoch incremented once. The returned
// slice holds, for each op, the affected external id (the assigned id for
// AutoID adds).
//
// Apply is exclusive with everything else on this Index; serving layers
// that must keep answering while updates land use WithUpdates and swap the
// derived index in atomically.
func (ix *Index) Apply(ups []ProbeUpdate) ([]int32, error) {
	if len(ups) == 0 {
		return nil, nil
	}
	// What the batch has done so far to each id it names: the op whose
	// vector the id now carries, or -1 once removed.
	staged := make(map[int32]int, len(ups))
	nextID := ix.nextID
	live := func(id int32) bool {
		if op, ok := staged[id]; ok {
			return op >= 0
		}
		_, _, _, ok := ix.find(id)
		return ok
	}

	ids := make([]int32, len(ups))
	for i, up := range ups {
		if err := up.CheckVector(i, ix.r); err != nil {
			return nil, err
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
			staged[id] = i
			if id >= nextID {
				nextID = id + 1
			}
			ids[i] = id
		case OpRemove, OpUpdate:
			if !live(up.ID) {
				return nil, fmt.Errorf("core: update %d: probe id %d is not live", i, up.ID)
			}
			staged[up.ID] = i
			if up.Op == OpRemove {
				staged[up.ID] = -1
			}
			ids[i] = up.ID
		default:
			return nil, fmt.Errorf("core: update %d: unknown op %d", i, int(up.Op))
		}
	}

	// Commit. Every id the batch names loses the live entry it had, to a
	// tombstone set in a private copy of its bucket's bitset, and enters the
	// new run if the batch leaves it live.
	dead, runs := ix.dead, slices.Clone(ix.runs)
	deadMain, overlayN := ix.deadMain, ix.overlayN
	copied := false // dead is the batch's own slice
	var entries []liveVec
	for id, op := range staged {
		if run, bi, lid, ok := ix.find(id); ok {
			if run < 0 {
				deadMain++
			} else {
				runs[run].live--
				overlayN--
			}
			if !copied {
				dead, copied = make([]tombs, len(ix.scan)), true
				copy(dead, ix.dead)
			}
			t := &dead[bi]
			if ix.dead == nil || t.n == ix.dead[bi].n { // the batch's first in this bucket
				bits := make([]uint64, (ix.scan[bi].size()+63)/64)
				copy(bits, t.bits)
				t.bits = bits
			}
			t.bits[lid>>6] |= 1 << (uint(lid) & 63)
			t.n++
		}
		if op >= 0 {
			entries = append(entries, liveVec{id, ups[op].Vec})
		}
	}
	overlayN += len(entries)

	// Merge: the oldest run that is half dead, or holds less than twice the
	// live vectors of everything newer, is rewritten with all newer ones.
	from, newer := len(runs), len(entries)
	for i := len(runs) - 1; i >= 0; i-- {
		if p := runs[i]; p.live*2 < len(p.ids) || p.live < 2*newer {
			from = i
		}
		newer += runs[i].live
	}
	gone := make([]bool, len(ix.scan)) // by scan position: a bucket of a rewritten run
	for _, p := range runs[from:] {
		for _, b := range p.buckets {
			gone[ix.scanPos(b)] = true
		}
		entries = ix.appendLive(entries, dead, p.deltaRun, func(i int) int32 { return p.ids[i] })
	}
	runs = runs[:from]
	var fresh []*bucket
	if len(entries) > 0 {
		run := ix.newRun(entries)
		runs, fresh = append(runs, run), run.buckets
	}
	ix.rescan(dead, gone, fresh)
	ix.runs, ix.deadMain, ix.overlayN, ix.nextID = runs, deadMain, overlayN, nextID
	ix.epoch++
	if from == 0 {
		ix.pretuneDelta()
	}
	return ids, nil
}

// appendLive appends the probes of one bucketization — a run, or the main
// structure — that dead, aligned with the current scan, does not tombstone:
// column col has id(col) and its raw vector in vecs.
func (ix *Index) appendLive(out []liveVec, dead []tombs, p *deltaRun, id func(col int) int32) []liveVec {
	pos := make([]int, len(p.buckets))
	for k, b := range p.buckets {
		pos[k] = ix.scanPos(b)
	}
	for col, l := range p.loc {
		if !isDead(dead, pos[l.bucket], int(l.lid)) {
			out = append(out, liveVec{id(col), p.vecs.Vec(col)})
		}
	}
	return out
}

// liveVecs lists the live probes: the main ones in column order, then the
// overlay's by ascending id — the column order Compact gives its matrix.
func (ix *Index) liveVecs() []liveVec {
	out := make([]liveVec, 0, ix.LiveN())
	if ix.deadMain == 0 {
		for col := 0; col < ix.n; col++ {
			out = append(out, liveVec{ix.extID(col), ix.probe.Vec(col)})
		}
	} else {
		main := &deltaRun{vecs: ix.probe, buckets: ix.buckets, loc: ix.mainLocs()}
		out = ix.appendLive(out, ix.dead, main, func(col int) int32 { return ix.extID(col) })
	}
	mainN := len(out)
	for _, p := range ix.runs {
		out = ix.appendLive(out, ix.dead, p.deltaRun, func(i int) int32 { return p.ids[i] })
	}
	overlay := out[mainN:]
	sort.Slice(overlay, func(a, b int) bool { return overlay[a].id < overlay[b].id })
	return out
}

// WithUpdates derives a new index with the batch applied, leaving the
// receiver untouched (copy-on-write): the derived index shares the probe
// matrix and every bucket the batch did not retire, and holds its own scan
// order and tombstones. The receiver may keep serving retrievals while the
// derivation runs, and afterwards the two answer retrievals independently
// of each other (see Index).
func (ix *Index) WithUpdates(ups []ProbeUpdate) (*Index, []int32, error) {
	cp := ix.shallowClone()
	ids, err := cp.Apply(ups)
	if err != nil {
		return nil, nil, err
	}
	return cp, ids, nil
}

// shallowClone copies the index under a new instance id. The copy shares
// everything the original holds — a batch replaces what it changes and
// never writes it — lazily built state and the scratch pool included.
func (ix *Index) shallowClone() *Index {
	cp := *ix
	cp.id = indexSeq.Add(1)
	return &cp
}

// pretuneDeltaMinOverlay is the overlay size below which pretuneDelta does
// nothing: scanning a handful of vectors costs about the same under any
// per-bucket method, so fitting parameters for them would charge small
// mutation batches a tuning pass that cannot pay for itself. Above it,
// delta buckets are big enough that a bad default method shows up in every
// retrieval until the next Compact.
const pretuneDeltaMinOverlay = 32

// pretuneDelta fits per-bucket parameters for the delta buckets the frozen
// fit has no entry for, reusing the retained pretune sample. Without it a
// pretuned index's overlay runs on default parameters until the next
// Compact — heavy update churn would keep the hottest (freshest) probes on
// the least-tuned buckets indefinitely, since frozen tuning means no
// retrieval call ever re-fits them. Every bucket that has an entry keeps it.
// Results are unaffected either way (tuning only selects the per-bucket
// method); the cost, like Compact's re-freeze, lands in PrepTime and is
// bounded three ways: tiny overlays skip tuning entirely, the restricted
// tuner stops its scan at the deepest bucket it fits, and fits are
// geometrically amortized — Apply calls this only for a batch that rewrote
// the oldest run, which takes everything newer to have reached half its
// size, so the overlay grew 1.5× since the last pass and a churn sequence of
// B batches pays O(log B) passes, not B. Between passes the newer runs'
// buckets run on defaults, and hold less than a third of the overlay.
func (ix *Index) pretuneDelta() {
	if !ix.pretuned || ix.overlayN < pretuneDeltaMinOverlay || ix.tuneSample == nil || !ix.opts.hasTunableParams() {
		return
	}
	start := time.Now()
	ix.frozen, _ = ix.tune(newCall(nil, ix.opts, nil), prepareQueries(ix.tuneSample), ix.tuneProb, true) // never canceled
	ix.prepTime += time.Since(start)
}

// rescan rebuilds the scan order — main and delta buckets merged by
// decreasing l_b, which both retrieval kernels rely on for pruning — after a
// batch: the buckets of rewritten runs (gone, by old scan position) leave,
// the new run's (fresh, by decreasing l_b) enter, and every other bucket
// keeps, from its old position, its tombstones (dead is aligned with the old
// scan) and its entry in the frozen fit; a fresh position is untuned until
// pretuneDelta publishes a fit for it. All four arrays are new, so relatives
// and running jobs may hold the old ones. It re-derives the scratch sizing
// bound, and, every call being a bucket-layout change, advances the layout
// generation (invalidating TuningCache entries for this index).
func (ix *Index) rescan(dead []tombs, gone []bool, fresh []*bucket) {
	old, oldFit := ix.scan, ix.frozen
	n := len(old) + len(fresh)
	ix.layout++
	ix.scan, ix.dead, ix.frozen, ix.maxBucket = make([]*bucket, 0, n), nil, nil, 0
	if dead != nil {
		ix.dead = make([]tombs, 0, n)
	}
	if oldFit != nil {
		ix.frozen = make([]tunedParam, 0, n)
	}
	emit := func(b *bucket, t tombs, p tunedParam) {
		ix.scan = append(ix.scan, b)
		if dead != nil {
			ix.dead = append(ix.dead, t)
		}
		if oldFit != nil {
			ix.frozen = append(ix.frozen, p)
		}
		ix.maxBucket = max(ix.maxBucket, b.size())
	}
	for i, b := range old {
		if gone[i] {
			continue
		}
		for ; len(fresh) > 0 && fresh[0].lb > b.lb; fresh = fresh[1:] {
			emit(fresh[0], tombs{}, tunedParam{})
		}
		var t tombs
		if dead != nil {
			t = dead[i]
		}
		emit(b, t, fitEntry(oldFit, i))
	}
	for _, b := range fresh {
		emit(b, tombs{}, tunedParam{})
	}
}

// setMain installs a tombstone-free main structure as the whole index: what
// a build, a restore and a Compact end with. No fit survives it.
func (ix *Index) setMain(buckets []*bucket) {
	ix.buckets, ix.mainAt = buckets, &locator{}
	ix.runs, ix.deadMain, ix.overlayN = nil, 0, 0
	ix.scan, ix.frozen = nil, nil
	ix.rescan(nil, nil, buckets)
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
func (ix *Index) mutated() bool { return ix.deadMain > 0 || len(ix.runs) > 0 }

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
// and tombstones and runs are cleared. Queries before and after a Compact
// return identical results — only the internal layout changes — so the
// epoch is not advanced. If per-call tuning was frozen by a Pretune method,
// the fitted per-bucket parameters are re-frozen on the retained tuning
// sample — which snapshots persist, so a snapshot-restored pretuned index
// re-freezes after Compact exactly like the original.
func (ix *Index) Compact() {
	if !ix.mutated() {
		return
	}
	start := time.Now()
	live := ix.liveVecs()
	probe, ids := ix.materialize(live)
	ix.probe, ix.n = probe, len(live)
	ix.setIDs(ids)
	buckets := bucketize(probe, ix.explicitIDs(), ix.opts.ShrinkFactor, ix.opts.MinBucketSize, ix.bucketCap())
	ix.attachSidecars(buckets)
	ix.setMain(buckets)
	ix.prepTime += time.Since(start)
	if ix.pretuned && ix.tuneSample != nil && len(live) > 0 && ix.opts.hasTunableParams() {
		tuneStart := time.Now()
		ix.frozen, _ = ix.tune(newCall(nil, ix.opts, nil), prepareQueries(ix.tuneSample), ix.tuneProb, false) // never canceled
		ix.prepTime += time.Since(tuneStart)
	}
}

// setIDs installs a column → external id mapping, using the compact
// arithmetic representation when the ids form a contiguous run; otherwise
// mainLoc inverts it for mutation routing.
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
	ix.mainLoc = make(map[int32]int32, len(ids))
	for col, id := range ids {
		ix.mainLoc[id] = int32(col)
	}
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
