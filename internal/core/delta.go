package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"lemp/internal/matrix"
	"lemp/internal/vecmath"
)

// Dynamic probe maintenance. The paper's bucketization (§3.2) assumes a
// static probe matrix; a long-lived server tracking a live item catalog
// needs add/remove/update without a full rebuild. An index therefore holds
// its probes as segments, each one immutable bucketization of a fixed set of
// vectors: the base segment a build, a restore or a Compact produces, and
// newer runs of the vectors later batches added or rewrote. A batch costs
// O(batch · r + buckets) time and allocation — whatever the probe count and
// however many vectors the runs already hold — and defers re-bucketization:
//
//   - Every probe carries a stable external id, the caller's or 0..n-1 for
//     NewIndex; mutations address probes by id and never renumber survivors.
//   - The vectors a batch adds or rewrites become one run, by ascending id.
//     Its buckets are ordinary buckets — the same bucket algorithms, lazy
//     indexes and tuning apply — merged with every other segment's into the
//     decreasing-l_b scan order both retrieval kernels require.
//   - Runs merge geometrically (the logarithmic method): a run stays while
//     it holds at least twice the live vectors of everything newer and at
//     least half of its own are live; otherwise it and every newer run are
//     rewritten into one, dead entries dropped. So there are
//     O(log(run vectors / batch)) runs and a vector is re-copied O(log)
//     times. A batch never rewrites the base segment.
//   - A removed or rewritten probe, in whichever segment, is a tombstone:
//     one bit, addressed (bucket, lid), in a bitset the index version holds
//     per scan bucket beside a dead count. Tombstoned entries are skipped at
//     verification time, so length bounds stay conservative and results
//     stay exact.
//   - Sharing: a segment, bucket or bitset reachable from a published index
//     is never written again. A batch copies the bitsets of the buckets it
//     touches and nothing else; every bucket it does not retire is carried
//     to the derived index by pointer, with its lazily built lists and
//     sidecar and its entry in a frozen fit.
//   - Compact is the same merge started at the base: every segment's live
//     vectors become one new base, re-bucketized and re-tuned (amortizing
//     the rebuild the way blocked methods for slowly changing matrices
//     amortize recomputation), external ids preserved.
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

// checkVector is the vector half of a batch's rules, for op i of its batch
// against an index of dimension r: an add or a rewrite carries r
// coordinates that pass checkFinite.
func (up ProbeUpdate) checkVector(i, r int) error {
	if up.Op != OpAdd && up.Op != OpUpdate {
		return nil
	}
	if len(up.Vec) != r {
		return fmt.Errorf("core: update %d: vector dimension %d does not match index dimension %d", i, len(up.Vec), r)
	}
	if err := checkFinite(up.Vec, vecmath.Norm(up.Vec)); err != nil {
		return fmt.Errorf("core: update %d: %w", i, err)
	}
	return nil
}

// checkFinite is the one rule every vector LEMP takes obeys: each probe at
// build (NewIndexWithIDs, which FromState runs too) and on update
// (checkVector), each query row (prepareQueries). The vector needs finite
// coordinates and a finite length, which is vecmath.Norm(v). A NaN or
// infinite coordinate makes the length non-finite too; so does a vector of
// finite coordinates whose squared length overflows, such as one holding
// 1e200, which has no direction to bucketize or rank by. Only a non-finite
// length needs a look at the coordinates, to name the culprit.
func checkFinite(v []float64, length float64) error {
	if !math.IsNaN(length) && !math.IsInf(length, 0) {
		return nil
	}
	for f, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("coordinate %d is %v; coordinates must be finite", f, x)
		}
	}
	return fmt.Errorf("length is %v; a vector's length must be finite", length)
}

// finiteLengths returns every column's length (m.Lengths()) once each
// column has passed checkFinite, or an error naming the first that fails it
// as the kind ("probe", "query") numbered ids[col], or col when ids is nil.
// The lengths are computed over up to workers goroutines, then checked in
// column order (a finite length needs no look at its coordinates).
func finiteLengths(m *matrix.Matrix, kind string, ids []int32, workers int) ([]float64, error) {
	type cols struct {
		m    *matrix.Matrix
		lens []float64
	}
	lens := make([]float64, m.N())
	spreadCols(m.N(), workers, cols{m, lens}, func(c cols, lo, hi int) {
		for col := lo; col < hi; col++ {
			c.lens[col] = vecmath.Norm(c.m.Vec(col))
		}
	})
	for col, l := range lens {
		if err := checkFinite(m.Vec(col), l); err != nil {
			id := int32(col)
			if ids != nil {
				id = ids[col]
			}
			return nil, fmt.Errorf("core: %s %d: %w", kind, id, err)
		}
	}
	return lens, nil
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

// probeLoc addresses one bucket entry inside a segment: the bucket's
// position in segment.buckets, and the lid.
type probeLoc struct{ bucket, lid int32 }

// segment is one immutable bucketization (§3.2) of a set of probe vectors,
// shared by every index version that holds it. Its buckets hold the vectors;
// a column is reached through loc.
type segment struct {
	ids     []int32    // external ids by column
	buckets []*bucket  // decreasing l_b
	loc     []probeLoc // by column: where each probe sits
	byID    []int32    // columns by ascending id; nil when ids ascend
}

// vec returns the raw vector of column col, aliasing its bucket's row.
func (s *segment) vec(col int) []float64 {
	at := s.loc[col]
	return s.buckets[at.bucket].row(int(at.lid))
}

// segRef is a segment as one index version holds it: live counts the
// entries that version has not tombstoned.
type segRef struct {
	*segment
	live int
}

// columnsByID lists the columns of ids by ascending id, or returns nil when
// the ids ascend already: the id lookup of a base over caller-chosen ids or
// of one a Compact produced. Like buildListRange it is a stable LSD radix
// sort, one counting pass per byte of the non-negative ids, skipping a byte
// every id shares.
func columnsByID(ids []int32) []int32 {
	if slices.IsSorted(ids) {
		return nil
	}
	src, dst := identityIDs(len(ids)), make([]int32, len(ids))
	for shift := 0; shift < 32; shift += 8 {
		var cnt [256]int32
		for _, id := range ids {
			cnt[byte(id>>shift)]++
		}
		if int(cnt[byte(ids[0]>>shift)]) == len(ids) {
			continue
		}
		at := int32(0)
		for j, c := range cnt {
			cnt[j], at = at, at+c
		}
		for _, col := range src {
			j := byte(ids[col] >> shift)
			dst[cnt[j]] = col
			cnt[j]++
		}
		src, dst = dst, src
	}
	return src
}

// at returns where the entry with the given id sits, if the segment holds
// one, live or dead.
func (s *segment) at(id int32) (probeLoc, bool) {
	col, ok := 0, false
	if s.byID == nil {
		col, ok = slices.BinarySearch(s.ids, id)
	} else if k, hit := slices.BinarySearchFunc(s.byID, id, func(c, id int32) int { return cmp.Compare(s.ids[c], id) }); hit {
		col, ok = int(s.byID[k]), true
	}
	if !ok {
		return probeLoc{}, false
	}
	return s.loc[col], true
}

// liveVec is one live probe: its id and its raw vector, aliased.
type liveVec struct {
	id  int32
	vec []float64
}

// newSegment bucketizes the n probes vec(0..n-1), column col named ids[col]
// and of length lens[col], into a segment with every entry live, copying
// each vector into its bucket. Under Options.Quantize its buckets carry
// their sidecars.
func (ix *Index) newSegment(n int, vec func(col int) []float64, ids []int32, lens []float64) segRef {
	s := &segment{ids: ids, byID: columnsByID(ids)}
	s.buckets, s.loc = bucketize(n, ix.r, vec, lens, ids, ix.opts.ShrinkFactor, ix.opts.MinBucketSize, ix.bucketCap(), ix.opts.Parallelism)
	ix.attachSidecars(s.buckets)
	return segRef{s, len(ids)}
}

// identityIDs returns the ids 0..n-1.
func identityIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// setBase installs a tombstone-free base segment as the whole index, as a
// build and a restore end: no run, no tombstone and no fit.
func (ix *Index) setBase(base segRef) {
	ix.segs = []segRef{base}
	ix.nextID = 0
	if len(base.ids) > 0 {
		ix.nextID = slices.Max(base.ids) + 1
	}
	ix.rescan(nil, nil, base.buckets)
}

// Epoch returns the index's mutation epoch: 0 at build, incremented by
// every successful Apply batch. Compact does not change the epoch —
// compaction is invisible to queries.
func (ix *Index) Epoch() uint64 { return ix.epoch }

// NextID returns the id the next AutoID add would receive.
func (ix *Index) NextID() int32 { return ix.nextID }

// LiveN returns the number of live probes: the base segment's untombstoned
// columns plus the newer runs' live vectors.
func (ix *Index) LiveN() int { return ix.segs[0].live + ix.runsLive() }

// runsLive counts the live vectors of the runs newer than the base segment.
func (ix *Index) runsLive() int {
	n := 0
	for _, s := range ix.segs[1:] {
		n += s.live
	}
	return n
}

// DeltaMass returns the fraction of mutation state relative to the live
// probe count: (base-segment tombstones + live vectors of newer runs) / live
// probes. It grows with accumulated drift — tombstones waste scan work
// inside base buckets, and run vectors live in small buckets — and is the
// quantity MaybeCompact thresholds on. An index whose every probe was
// updated once has delta mass 2 (n tombstones + n run vectors).
func (ix *Index) DeltaMass() float64 {
	base := ix.segs[0]
	mass := len(base.ids) - base.live + ix.runsLive()
	if mass == 0 {
		return 0
	}
	return float64(mass) / float64(max(ix.LiveN(), 1))
}

// LiveProbes materializes the live probe set — every segment's
// untombstoned vectors — as a fresh matrix with its ids in ascending order.
func (ix *Index) LiveProbes() (*matrix.Matrix, []int32) {
	live := make([]liveVec, 0, ix.LiveN())
	for _, s := range ix.segs {
		ix.eachLive(s, ix.dead, func(col int) { live = append(live, liveVec{s.ids[col], s.vec(col)}) })
	}
	sort.Slice(live, func(a, b int) bool { return live[a].id < live[b].id })
	m, ids := matrix.New(ix.r, len(live)), make([]int32, len(live))
	for i, e := range live {
		ids[i] = e.id
		copy(m.Vec(i), e.vec)
	}
	return m, ids
}

// LiveIDs returns the external ids of all live probes in ascending order.
func (ix *Index) LiveIDs() []int32 {
	out := make([]int32, 0, ix.LiveN())
	for _, s := range ix.segs {
		ix.eachLive(s, ix.dead, func(col int) { out = append(out, s.ids[col]) })
	}
	slices.Sort(out)
	return out
}

// eachLive calls f with every column of segment s that dead, aligned with
// this version's scan, does not tombstone, in column order.
func (ix *Index) eachLive(s segRef, dead []tombs, f func(col int)) {
	if s.live == len(s.ids) {
		for col := range s.ids {
			f(col)
		}
		return
	}
	pos := make([]int, len(s.buckets))
	for k, b := range s.buckets {
		pos[k] = ix.scanPos(b)
	}
	for col, l := range s.loc {
		if !isDead(dead, pos[l.bucket], int(l.lid)) {
			f(col)
		}
	}
}

// scanPos returns the scan position of a bucket of this index version.
func (ix *Index) scanPos(b *bucket) int {
	i := sort.Search(len(ix.scan), func(i int) bool { return ix.scan[i].lb <= b.lb })
	for ix.scan[i] != b {
		i++
	}
	return i
}

// find locates the live probe with the given id: the segment that holds it,
// its bucket's scan position and its lid. An id has at most one live entry,
// whatever dead ones other segments still carry.
func (ix *Index) find(id int32) (seg, bi, lid int, ok bool) {
	for seg = len(ix.segs) - 1; seg >= 0; seg-- {
		s := ix.segs[seg]
		if l, hit := s.at(id); hit {
			if bi, lid = ix.scanPos(s.buckets[l.bucket]), int(l.lid); !ix.deadSkip(bi, lid) {
				return seg, bi, lid, true
			}
		}
	}
	return 0, 0, 0, false
}

// Has reports whether the probe with the given id is live. It only reads,
// so it may run beside retrievals.
func (ix *Index) Has(id int32) bool {
	_, _, _, ok := ix.find(id)
	return ok
}

// planUpdates holds the rules of one mutation batch, which Apply checks
// before it changes anything: each op is checked in order, against the batch's own effect
// so far over live — the caller's liveness test for the state before the
// batch — and an AutoID add takes the next id from nextID on. An add needs a
// valid id that is not live, a remove or a rewrite a live one, and an add or
// a rewrite r finite coordinates (checkVector); the first op that fails is
// the error, under its index in the batch, and net is never called. Once
// every op passes, net receives the batch's net effect, one op per id the
// batch names in the order of its first op there, carrying the id's final
// vector: OpRemove or OpUpdate for an id live before the batch, OpAdd for
// one live only after, and nothing for an id live at neither end (an add
// then a remove). planUpdates returns each op's id (the assigned one for an
// AutoID add) and the id the next AutoID add would take.
func planUpdates(ups []ProbeUpdate, r int, nextID int32, live func(int32) bool, net func(ProbeUpdate)) ([]int32, int32, error) {
	// What the batch has done so far to each id it names: whether the id
	// was live before it and is now, and the op whose vector it carries.
	type stage struct {
		op        int
		was, live bool
	}
	staged := make(map[int32]stage, len(ups))
	ids := make([]int32, len(ups))
	for i, up := range ups {
		if err := up.checkVector(i, r); err != nil {
			return nil, 0, err
		}
		id := up.ID
		if up.Op == OpAdd && id == AutoID {
			if id = nextID; id > MaxProbeID {
				return nil, 0, fmt.Errorf("core: update %d: probe id space exhausted", i)
			}
		} else if up.Op == OpAdd && (id < 0 || id > MaxProbeID) {
			return nil, 0, fmt.Errorf("core: update %d: invalid probe id %d", i, id)
		}
		s, seen := staged[id]
		if !seen && id < nextID { // ids at or past nextID were never used
			s.was = live(id)
			s.live = s.was
		}
		switch up.Op {
		case OpAdd:
			if s.live {
				return nil, 0, fmt.Errorf("core: update %d: probe id %d is already live", i, id)
			}
			nextID = max(nextID, id+1)
		case OpRemove, OpUpdate:
			if !s.live {
				return nil, 0, fmt.Errorf("core: update %d: probe id %d is not live", i, id)
			}
		default:
			return nil, 0, fmt.Errorf("core: update %d: unknown op %d", i, int(up.Op))
		}
		s.op, s.live = i, up.Op != OpRemove
		staged[id] = s
		ids[i] = id
	}
	for _, id := range ids {
		s, ok := staged[id]
		if !ok {
			continue // its net op is out
		}
		delete(staged, id)
		switch {
		case s.live && s.was:
			net(ProbeUpdate{Op: OpUpdate, ID: id, Vec: ups[s.op].Vec})
		case s.live:
			net(ProbeUpdate{Op: OpAdd, ID: id, Vec: ups[s.op].Vec})
		case s.was:
			net(ProbeUpdate{Op: OpRemove, ID: id})
		}
	}
	return ids, nextID, nil
}

// Apply performs a batch of probe mutations atomically: planUpdates checks
// the batch against the untouched index, which changes only if every op
// passes. On success each live entry the batch removes or rewrites becomes a
// tombstone, the vectors it leaves live become a new run — merged with
// older runs by the rule in the header — the scan order is rebuilt and the
// epoch incremented once. The returned slice holds, for each op, the
// affected external id (the assigned id for AutoID adds).
//
// Apply is exclusive with everything else on this Index; serving layers
// that must keep answering while updates land use WithUpdates and swap the
// derived index in atomically.
func (ix *Index) Apply(ups []ProbeUpdate) ([]int32, error) {
	if len(ups) == 0 {
		return nil, nil
	}
	// Commit the net effect. Every id live before the batch loses its live
	// entry, to a tombstone set in a private copy of its bucket's bitset,
	// and every id the batch leaves live enters the new run.
	dead, segs := ix.dead, slices.Clone(ix.segs)
	copied := false // dead is the batch's own slice
	var batch []liveVec
	ids, nextID, err := planUpdates(ups, ix.r, ix.nextID, ix.Has, func(up ProbeUpdate) {
		if up.Op != OpAdd {
			seg, bi, lid, _ := ix.find(up.ID)
			segs[seg].live--
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
		if up.Op != OpRemove {
			batch = append(batch, liveVec{up.ID, up.Vec})
		}
	})
	if err != nil {
		return nil, err
	}

	// The oldest run that is half dead, or holds less than twice the live
	// vectors of everything newer, is rewritten with all newer ones.
	from, newer := len(segs), len(batch)
	for i := len(segs) - 1; i > 0; i-- {
		if s := segs[i]; s.live*2 < len(s.ids) || s.live < 2*newer {
			from = i
		}
		newer += segs[i].live
	}
	ix.merge(segs, from, dead, batch)
	ix.nextID = nextID
	ix.epoch++
	if from == 1 {
		ix.pretuneDelta()
	}
	return ids, nil
}

// merge rewrites segs[from:] — this version's segments, their live counts
// matching dead — and the batch's vectors into one new segment, and installs
// segs[:from] plus that segment, whose buckets take the rewritten ones'
// places in the scan. The new segment keeps segment 0's live columns in
// column order, when it rewrites segment 0, and takes every other vector by
// ascending id: the column order a snapshot of a mutated index stores. It is
// Apply's geometric merge (from ≥ 1) and Compact (from 0, no batch); only
// the latter leaves no fit and no tombstone behind.
func (ix *Index) merge(segs []segRef, from int, dead []tombs, batch []liveVec) {
	gone := make([]bool, len(ix.scan)) // by scan position: a bucket of a rewritten segment
	n := len(batch)
	for _, s := range segs[from:] {
		n += s.live
	}
	live := make([]liveVec, 0, n)
	for _, s := range segs[from:] {
		for _, b := range s.buckets {
			gone[ix.scanPos(b)] = true
		}
		ix.eachLive(s, dead, func(col int) { live = append(live, liveVec{s.ids[col], s.vec(col)}) })
	}
	live = append(live, batch...)
	rest := live
	if from == 0 {
		rest = live[segs[0].live:]
		ix.scan, ix.frozen, dead, gone = nil, nil, nil, nil // nothing of the old scan survives
	}
	sort.Slice(rest, func(a, b int) bool { return rest[a].id < rest[b].id })

	segs = segs[:from:from]
	var fresh []*bucket
	if len(live) > 0 || from == 0 {
		type cols struct {
			live []liveVec
			ids  []int32
			lens []float64
		}
		ids, lens := make([]int32, len(live)), make([]float64, len(live))
		spreadCols(len(live), ix.opts.Parallelism, cols{live, ids, lens}, func(c cols, lo, hi int) {
			for i := lo; i < hi; i++ {
				c.ids[i], c.lens[i] = c.live[i].id, vecmath.Norm(c.live[i].vec)
			}
		})
		s := ix.newSegment(len(live), func(col int) []float64 { return live[col].vec }, ids, lens)
		for _, b := range s.buckets {
			b.delta = from > 0
		}
		segs, fresh = append(segs, s), s.buckets
	}
	ix.segs = segs
	ix.rescan(dead, gone, fresh)
}

// WithUpdates derives a new index with the batch applied, leaving the
// receiver untouched (copy-on-write): the derived index shares every
// segment and every bucket the batch did not retire, and holds its own scan
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

// pretuneDeltaMinOverlay is the number of live run vectors below which
// pretuneDelta does nothing: scanning a handful of vectors costs about the
// same under any per-bucket method, so fitting parameters for them would
// charge small mutation batches a tuning pass that cannot pay for itself.
// Above it, run buckets are big enough that a bad default method shows up in
// every retrieval until the next Compact.
const pretuneDeltaMinOverlay = 32

// pretuneDelta fits per-bucket parameters for the run buckets the frozen fit
// has no entry for, reusing the retained pretune sample. Without it a
// pretuned index's runs scan on default parameters until the next Compact —
// heavy update churn would keep the hottest (freshest) probes on the
// least-tuned buckets indefinitely, since frozen tuning means no retrieval
// call ever re-fits them. Every bucket that has an entry keeps it. Results
// are unaffected either way (tuning only selects the per-bucket method); the
// cost, like Compact's re-freeze, lands in PrepTime and is bounded three
// ways: tiny runs skip tuning entirely, the restricted tuner stops its scan
// at the deepest bucket it fits, and fits are geometrically amortized —
// Apply calls this only for a batch that rewrote the oldest run, which takes
// everything newer to have reached half its size, so the runs grew 1.5×
// since the last pass and a churn sequence of B batches pays O(log B)
// passes, not B. Between passes the newer runs' buckets run on defaults, and
// hold less than a third of the runs' vectors.
func (ix *Index) pretuneDelta() {
	if !ix.pretuned || ix.runsLive() < pretuneDeltaMinOverlay || ix.tuneSample == nil || !ix.opts.hasTunableParams() {
		return
	}
	start := time.Now()
	ix.refreeze(true)
	ix.prepTime += time.Since(start)
}

// refreeze refits the frozen parameters from the retained sample, every
// bucket's or (deltaOnly) the runs' only. The sample obeyed prepareQueries'
// rule when Pretune or FromState kept it; the fit is never canceled.
func (ix *Index) refreeze(deltaOnly bool) {
	qs, _ := prepareQueries(ix.tuneSample)
	ix.frozen, _ = ix.tune(newCall(nil, ix.opts, nil), qs, ix.tuneProb, deltaOnly)
}

// rescan rebuilds the scan order — every segment's buckets merged by
// decreasing l_b, which both retrieval kernels rely on for pruning — after a
// batch: the buckets of rewritten segments (gone, by old scan position)
// leave, the new segment's (fresh, by decreasing l_b) enter, and every other
// bucket keeps, from its old position, its tombstones (dead is aligned with
// the old scan) and its entry in the frozen fit; a fresh position is untuned
// until pretuneDelta publishes a fit for it. All four arrays are new, so
// relatives and running jobs may hold the old ones. It re-derives the
// scratch sizing bound, and, every call being a bucket-layout change,
// advances the layout generation (invalidating TuningCache entries for this
// index).
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

// bucketCap resolves Options.CacheBytes into the per-bucket size cap
// bucketize enforces.
func (ix *Index) bucketCap() int {
	if ix.opts.CacheBytes <= 0 {
		return 0
	}
	return max(ix.opts.CacheBytes/bucketBytes(ix.r), ix.opts.MinBucketSize)
}

// mutated reports whether the index holds a tombstone or a run.
func (ix *Index) mutated() bool { return len(ix.segs) > 1 || ix.segs[0].live < len(ix.segs[0].ids) }

// MaybeCompact compacts when the delta mass exceeds the threshold,
// reporting whether it did. Serving layers call this after every update
// batch: small drift stays in the cheap runs and tombstones, accumulated
// drift pays one re-bucketization and returns the index to one tuned,
// tombstone-free segment.
func (ix *Index) MaybeCompact(threshold float64) bool {
	if !ix.mutated() || ix.DeltaMass() <= threshold {
		return false
	}
	ix.Compact()
	return true
}

// Compact merges every segment into one new base segment: the live probes —
// the base's in column order, then the runs' by ascending id, external ids
// preserved — re-bucketized per §3.2, with no tombstone and no run left.
// Queries before and after a Compact return identical results — only the
// internal layout changes — so the epoch is not advanced. If per-call tuning
// was frozen by a Pretune method, the fitted per-bucket parameters are
// re-frozen on the retained tuning sample — which snapshots persist, so a
// snapshot-restored pretuned index re-freezes after Compact exactly like the
// original.
func (ix *Index) Compact() {
	if !ix.mutated() {
		return
	}
	start := time.Now()
	ix.merge(ix.segs, 0, ix.dead, nil)
	ix.prepTime += time.Since(start)
	if ix.pretuned && ix.tuneSample != nil && ix.LiveN() > 0 && ix.opts.hasTunableParams() {
		tuneStart := time.Now()
		ix.refreeze(false)
		ix.prepTime += time.Since(tuneStart)
	}
}
