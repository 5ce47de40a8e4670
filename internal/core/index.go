package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lemp/internal/matrix"
	"lemp/internal/quant"
)

// Index is a LEMP index over a probe matrix P: the preprocessing phase of
// Algorithm 1 (bucketization by length), with all per-bucket search indexes
// built lazily during retrieval. Its buckets hold the one copy of each probe
// it keeps, the raw row. Its probes live in segments (delta.go): the base
// segment a build, restore or Compact produces, and the newer runs that
// absorb probe mutations between re-bucketizations.
//
// Concurrency: any number of retrievals — one-shot Retrieve calls, the Run
// panels of any Job — may run concurrently on one Index and
// on its copy-on-write relatives (WithUpdates). No retrieval writes index
// state: the §4.4 fit is a value its job owns, lazily built per-bucket
// indexes are Once- or mutex-guarded, scratch is pooled. Apply, Compact and
// Pretune are exclusive with everything else on the index they mutate.
// State — and so WriteSnapshot — only reads and may run beside retrievals.
type Index struct {
	opts      Options
	r         int
	maxBucket int // largest bucket in scan (sizes worker scratch)
	prepTime  time.Duration
	slack     float64 // boundSlack(r), by which every pruning bound is loosened

	// autoScreen is set where the int8 screen runs without being asked for:
	// the index was built without Options.Quantize and quant's kernels are
	// assembly for its dimension. Sidecars are then lazy per-bucket indexes
	// and sidecarFor (verify.go) decides pair by pair. Fixed at construction
	// and shared with copy-on-write relatives; tests clear it to obtain the
	// screen-less reference.
	autoScreen bool

	// sweepOff makes the tuner observe every bucket its sample reaches, not
	// stop where LENGTH sweeps (tunePatience): set by tests, to compare fits.
	sweepOff bool

	// id uniquely identifies this Index instance (copy-on-write derivations
	// get fresh ids); layout counts bucketization changes (batches,
	// Compact). Together with the epoch they version the index for
	// TuningCache keys: a cached parameter set can never be applied to an
	// index whose buckets have changed shape.
	id     uint64
	layout uint64

	// The probes (delta.go): segs[0] is the base segment, segs[1:] the runs
	// newer than it, oldest first, each with this version's live count.
	// scan merges every segment's buckets by decreasing l_b, and dead —
	// aligned with it, nil until the first tombstone — holds this version's
	// tombstones. epoch counts applied mutation batches; nextID feeds AutoID
	// adds.
	epoch  uint64
	nextID int32
	segs   []segRef
	scan   []*bucket
	dead   []tombs

	// pretuned freezes per-call tuning: every retrieval runs under the
	// frozen fit instead of fitting its own. Set by Pretune and restored by
	// FromState. frozen is aligned with scan, nil unless pretuned (and then
	// still nil when nothing was tunable: defaults), and only ever replaced
	// wholesale — by Pretune, Compact's re-freeze, pretuneDelta, and rescan,
	// which carries every surviving bucket's entry to its new position —
	// never written in place, so copy-on-write relatives and running jobs
	// may hold it. tuneProb and tuneSample retain what Pretune fitted (the
	// sample is nil when nothing was retained), so Compact can re-freeze.
	pretuned   bool
	frozen     []tunedParam
	tuneProb   Problem
	tuneSample *matrix.Matrix

	// The pool that recycles per-worker scratch space across retrieval calls
	// (see getScratch), shared by an index and all its copy-on-write
	// relatives (shallowClone copies the pointer), so a read after an update
	// finds warm scratch. Stale sizings are rejected at Get time, so the pool
	// needs no explicit invalidation when the bucket layout changes.
	scratchPool *sync.Pool
}

// NewIndex preprocesses the probe matrix into a LEMP index. The index copies
// every probe into its bucket and keeps no reference to the matrix, which
// the caller may reuse at once. Probes are assigned the external ids 0..n-1.
func NewIndex(p *matrix.Matrix, opts Options) (*Index, error) {
	return NewIndexWithIDs(p, nil, opts)
}

// NewIndexWithIDs is NewIndex with caller-chosen external probe ids:
// ids[col] names probe column col in every result and mutation. ids must be
// unique and non-negative; nil assigns 0..n-1. Every probe must have finite
// coordinates and a finite length (checkFinite). A catalog rebuilt after
// mutations uses this to keep its ids.
func NewIndexWithIDs(p *matrix.Matrix, ids []int32, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if ids == nil {
		ids = identityIDs(p.N())
	} else {
		if len(ids) != p.N() {
			return nil, fmt.Errorf("core: %d probe ids for %d probes", len(ids), p.N())
		}
		seen := make(map[int32]struct{}, len(ids))
		for _, id := range ids {
			if id < 0 || id > MaxProbeID {
				return nil, fmt.Errorf("core: probe id %d out of range [0, %d]", id, int32(MaxProbeID))
			}
			if _, dup := seen[id]; dup {
				return nil, fmt.Errorf("core: duplicate probe id %d", id)
			}
			seen[id] = struct{}{}
		}
	}
	start := time.Now()
	lens, err := finiteLengths(p, "probe", ids, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	ix := &Index{opts: opts, r: p.R(), slack: boundSlack(p.R()), id: indexSeq.Add(1), scratchPool: new(sync.Pool),
		autoScreen: !opts.Quantize && quant.Accelerated(p.R())}
	ix.setBase(ix.newSegment(p.N(), p.Vec, ids, lens))
	ix.prepTime = time.Since(start)
	return ix, nil
}

// indexSeq issues unique Index instance ids (TuningCache key component).
var indexSeq atomic.Uint64

// R returns the vector dimension.
func (ix *Index) R() int { return ix.r }

// N returns the number of live probe vectors: the base segment's
// untombstoned columns plus the newer runs' live vectors.
func (ix *Index) N() int { return ix.LiveN() }

// NumBuckets returns the number of probe buckets, every segment's.
func (ix *Index) NumBuckets() int { return len(ix.scan) }

// BucketInfo describes one probe bucket for introspection: its size and
// length range, whether any lazy index has been built, whether it carries an
// int8 screening sidecar, and the bucket's entry in the frozen fit of a
// pretuned index (§4.4). Tuned, TB and Phi are false/zero on an index that is
// not pretuned — there each retrieval fits and owns its own parameters, and
// none are the index's to report — and for a bucket the frozen fit has not
// reached (a run's bucket awaiting its fit).
type BucketInfo struct {
	Size      int
	MaxLength float64 // l_b, the length of the longest vector
	MinLength float64
	Indexed   bool    // the sorted lists exist
	Sidecar   bool    // an int8 sidecar exists: built eagerly (Options.Quantize) or by a screened pair
	Tuned     bool    // the frozen fit holds t_b and φ_b for this bucket
	TB        float64 // switch threshold: LENGTH below, coordinate method above
	Phi       int     // focus-set size φ_b
	Delta     bool    // a bucket of a run newer than the base segment
}

// Buckets reports the current per-bucket state in decreasing-length order,
// the runs' buckets included.
func (ix *Index) Buckets() []BucketInfo {
	out := make([]BucketInfo, len(ix.scan))
	for i, b := range ix.scan {
		p := fitEntry(ix.frozen, i)
		out[i] = BucketInfo{
			Size:      b.size(),
			MaxLength: b.lb,
			MinLength: b.lens[b.size()-1],
			Indexed:   b.lists.Load() != nil,
			Sidecar:   b.q8.Load() != nil,
			Tuned:     p.tuned,
			TB:        p.tb,
			Phi:       p.phi,
			Delta:     b.delta,
		}
	}
	return out
}

// PrepTime returns the wall-clock time of the preprocessing phase.
func (ix *Index) PrepTime() time.Duration { return ix.prepTime }

// Options returns the effective (defaulted) options.
func (ix *Index) Options() Options { return ix.opts }

// defaultPhi is the focus-set size used under options o before tuning has
// produced a per-bucket φ_b.
func (ix *Index) defaultPhi(o Options) int { return max(1, min(3, o.MaxPhi, ix.r)) }

// resolve maps the call's effective algorithm to the concrete method for
// one (scan bucket bi, θ_b) pair: mixed algorithms switch on the tuned t_b,
// and INCR with φ_b = 1 degrades to COORD (Appendix A). It is the one reader
// of a fit: the bucket's entry in the one the call runs under, defaults when
// that is nil or the entry untuned.
func (ix *Index) resolve(c *call, bi int, thetaB float64) (Algorithm, int) {
	p := fitEntry(c.fit, bi)
	alg := c.opts.Algorithm
	phi := c.opts.Phi
	if phi == 0 {
		if p.tuned {
			phi = p.phi
		} else {
			phi = ix.defaultPhi(c.opts)
		}
	}
	if phi > ix.r && ix.r > 0 {
		phi = ix.r
	}
	tb := defaultTB
	if p.tuned {
		tb = p.tb
	}
	switch alg {
	case AlgLC:
		if thetaB < tb {
			return AlgL, phi
		}
		return AlgC, phi
	case AlgLI:
		if thetaB < tb {
			return AlgL, phi
		}
		if phi == 1 {
			return AlgC, phi
		}
		return AlgI, phi
	case AlgI:
		if phi == 1 {
			return AlgC, phi
		}
	}
	return alg, phi
}

// defaultTB is the LENGTH-vs-coordinate switch used for buckets the tuning
// sample never reached (their θ_b was above 1 for every sampled query, so
// at retrieval time they are almost always pruned or barely scanned).
const defaultTB = 0.9

// gather leaves the candidates of one (query, scan bucket bi) pair in
// s.cand: the call's generator's (RunOptions.Gen) when it has one, otherwise
// those of the bucket method resolve picks. qi is the query's index in the
// sorted query set, qdir its unit direction, qlen its length, theta the
// global threshold (-Inf while a Row-Top-k heap is not yet full) and thetaB
// the local one, θ/(qlen·l_b).
func (ix *Index) gather(c *call, bi int, qi int32, qdir []float64, qlen, theta, thetaB float64, s *scratch) {
	b := ix.scan[bi]
	if c.gen != nil {
		if s.gen == nil {
			s.gen = c.gen.Worker()
		}
		lids, prefix := s.gen(Bucket{b}, Pair{QI: qi, Dir: qdir, Len: qlen, Theta: theta, ThetaB: thetaB}, s.cand[:0])
		if prefix > 0 {
			s.setPrefix(prefix)
		} else {
			s.cand, s.prefix = lids, false
		}
		return
	}
	switch alg, phi := ix.resolve(c, bi, thetaB); alg {
	case AlgL:
		runLength(b, theta, qlen, ix.slack, s)
	case AlgC:
		runCoord(b, qdir, thetaB, ix.slack, phi, s)
	case AlgI:
		runIncr(b, qdir, qlen, theta, thetaB, ix.slack, phi, s)
	default:
		panic(fmt.Sprintf("core: unresolved algorithm %v", alg))
	}
}

// attachSidecars quantizes the rows of freshly built or restored buckets
// into their int8 screening sidecars, eagerly, under
// Options.Quantize, the buckets spread over Options.Parallelism goroutines;
// every other index leaves them to the first screened pair (sidecarFor).
// Dimensions outside [1, quant.MaxDim] leave every sidecar nil, silently
// disabling screening.
func (ix *Index) attachSidecars(buckets []*bucket) {
	if !ix.opts.Quantize || ix.r < 1 || ix.r > quant.MaxDim {
		return
	}
	n := 0
	for _, b := range buckets {
		n += b.size()
	}
	spreadItems(len(buckets), spreadWorkers(n, ix.opts.Parallelism), buckets, func(bs []*bucket, i int) { bs[i].ensureSidecar() })
}

// SidecarBytes returns the memory held by the int8 screening sidecars across
// all scanned buckets: every bucket's under Options.Quantize, otherwise those
// of the buckets retrievals have screened so far (none where the int8 kernels
// are not assembly). It may run beside retrievals.
func (ix *Index) SidecarBytes() int {
	total := 0
	for _, b := range ix.scan {
		total += b.q8.Load().Bytes()
	}
	return total
}

// ListBytes returns the memory held by the sorted-list indexes (§4.2), 12·r
// bytes per probe of every scanned bucket that carries them: built by a tuning
// pass or a coordinate method's scan, or restored. It may run beside retrievals.
func (ix *Index) ListBytes() int {
	total := 0
	for _, b := range ix.scan {
		if sl := b.lists.Load(); sl != nil {
			total += 8*len(sl.vals) + 4*len(sl.lids)
		}
	}
	return total
}
