package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lemp/internal/matrix"
	"lemp/internal/topk"
)

// Sample-based algorithm selection (§4.4). For a small sample of query
// vectors, LEMP times LENGTH and the coordinate method with each focus-set
// size φ ∈ 1..MaxPhi on every bucket the sample reaches, then picks per
// bucket the φ_b with the smallest total cost and — for the mixed LC/LI
// algorithms — the switch threshold t_b that minimizes total cost under the
// rule "use LENGTH whenever θ_b(q) < t_b". Costs are wall-clock by default
// (the paper's approach) or a deterministic operation count with
// Options.TuneByCost.

// needsTuning reports whether a retrieval under options o should run the
// sample-based selection: the algorithm has parameters to fit and tuning
// has not been frozen by a Pretune call (or a snapshot restore of a
// pretuned index).
func (ix *Index) needsTuning(o Options) bool {
	return !ix.pretuned && o.hasTunableParams()
}

// ensureTuned returns the fit one retrieval runs under: the frozen fit (nil,
// meaning defaults, unless pretuned) when nothing is to be fitted, the slice
// the call's TuningCache holds for this exact index version and problem when
// there is one, and the result of a timed sample-tuning pass (stored into the
// cache) otherwise. Cancellation mid-tune returns the context error and no
// fit: nothing partial is ever published.
func (ix *Index) ensureTuned(c *call, qs *querySet, prob Problem, st *Stats) ([]tunedParam, error) {
	if !ix.needsTuning(c.opts) || ix.LiveN() == 0 || qs.n() == 0 {
		return ix.frozen, nil
	}
	var key tuneCacheKey
	if c.cache != nil {
		key = ix.tuneCacheKey(c.opts, prob)
		// The length check is belt and braces: only a layout change that
		// failed to rotate the key could trip it.
		if fit, ok := c.cache.get(key); ok && len(fit) == len(ix.scan) {
			st.TuneCacheHits++
			return fit, nil
		}
	}
	tuneStart := time.Now()
	fit, err := ix.tune(c, qs, prob, false)
	if err != nil {
		return nil, err
	}
	st.TuneTime += time.Since(tuneStart)
	st.Tunings++
	if c.cache != nil {
		c.cache.put(key, fit)
	}
	return fit, nil
}

// Pretune runs the sample-based algorithm selection (§4.4) for the problem
// with the given query sample and freezes the fitted per-bucket parameters:
// subsequent retrieval calls reuse them instead of re-tuning. Freezing
// trades adaptivity for per-call latency — results stay exact either way,
// only the per-bucket algorithm choice is affected — and the frozen
// parameters survive snapshot save/restore, which is how a snapshot-loaded
// server answers queries with zero tuning time.
func (ix *Index) Pretune(q *matrix.Matrix, prob Problem) error {
	if err := prob.Validate(); err != nil {
		return err
	}
	if err := ix.checkDim(q); err != nil {
		return err
	}
	if q.N() == 0 {
		return fmt.Errorf("core: pretuning needs at least one sample query")
	}
	ix.frozen = nil
	if ix.opts.hasTunableParams() && ix.LiveN() > 0 {
		ix.frozen, _ = ix.tune(newCall(nil, ix.opts, nil), prepareQueries(q), prob, false) // never canceled
	}
	ix.pretuned = true
	// Retain the sample and problem so Compact can re-freeze the fitted
	// parameters after re-bucketization (the sample is small; cloning
	// detaches it from caller-owned storage).
	ix.tuneProb = prob
	ix.tuneSample = q.Clone()
	return nil
}

// observation is the measured cost of both method families for one
// (query, bucket) pair.
type observation struct {
	thetaB  float64
	costL   float64
	costPhi []float64 // indexed by φ; 0 unused
}

// tune runs the sample-based selection under the call's effective options
// and returns the fit, one entry per scan bucket. It checks the call's
// context at bucket boundaries: a canceled call stops mid-sample and returns
// the context error and no fit.
//
// With deltaOnly only the delta buckets the frozen fit has no entry for are
// observed and fitted; every other entry is the frozen fit's. The Row-Top-k
// sample still walks the scan prefix up to the deepest target bucket to
// advance the running-threshold trajectory — the observations must be taken
// at the thresholds a real run would see — but skips the per-bucket cost
// measurements everywhere else and stops once no target bucket remains, so
// a restricted pass costs O(scan prefix), not O(index). Delta-layer
// pretuning (delta.go) uses this to fit new overlay buckets from the
// retained pretune sample.
func (ix *Index) tune(c *call, qs *querySet, prob Problem, deltaOnly bool) ([]tunedParam, error) {
	target := func(bi int) bool {
		return !deltaOnly || ix.scan[bi].delta && !fitEntry(ix.frozen, bi).tuned
	}
	lastTarget := -1
	for bi := range ix.scan {
		if target(bi) {
			lastTarget = bi
		}
	}
	kk := min(prob.K, ix.LiveN()) // 0 for Above-θ

	// The sample queries are independent, so they fan out over the call's
	// parallelism, each worker with its own scratch and heap. Every query
	// records its observations privately; they are merged below in sample
	// order, so the fit sees exactly the sequence a serial pass produces
	// (bit-identical under TuneByCost, where the costs are counts).
	type bucketObs struct {
		bi int
		o  observation
	}
	sample := sampleIndices(qs.n(), c.opts.SampleQueries)
	perSample := make([][]bucketObs, len(sample))
	sampleQuery := func(si int, s *scratch, heap *topk.Heap) {
		qi := sample[si]
		qlen := qs.lens[qi]
		if qlen == 0 {
			return
		}
		qdir := qs.dir(qi)
		s.beginTile(qi, 1) // verifyCands keeps the query's int8 codes per tile row
		if prob.K == 0 {
			for bi, b := range ix.scan {
				if bi > lastTarget {
					break // no target bucket remains
				}
				if c.canceled() {
					return
				}
				thetaB := prob.Theta / (qlen * b.lb)
				if thetaB > 1 {
					break // buckets are ordered by decreasing l_b
				}
				if target(bi) {
					perSample[si] = append(perSample[si], bucketObs{bi, ix.observe(c, bi, int32(qi), qdir, qlen, prob.Theta, thetaB, s)})
				}
			}
			return
		}
		if heap == nil {
			return // no live probe to rank
		}
		var trajStats Stats // trajectory verification is not a run; discard
		heap.Reset()
		for bi, b := range ix.scan {
			if bi > lastTarget {
				break // trajectory past the deepest target is unused
			}
			if c.canceled() {
				return
			}
			theta, thetaB, pruned := topkThresholds(heap, b.lb)
			if pruned {
				break
			}
			// Advance the running threshold with an exact LENGTH pass (the
			// sample must follow the same θ′ trajectory as a real run),
			// verified by the scan's own per-pair step. Coordinate methods
			// only ever run with θ_b ∈ (0,1] — below that resolve() forces
			// LENGTH and there is nothing to measure — and where they are
			// measured, the observation's own LENGTH pass is that step: it
			// ran last and left its candidates in the scratch, verified
			// already unless costs are counted.
			observed := thetaB > 0 && target(bi)
			if observed {
				perSample[si] = append(perSample[si], bucketObs{bi, ix.observe(c, bi, int32(qi), qdir, 1, theta, thetaB, s)})
			} else {
				runLength(b, theta, 1, s)
			}
			if !observed || c.opts.TuneByCost {
				ix.verifyCands(bi, s, int32(qi), qdir, 1, theta, c.approx, &trajStats)
			}
			for i, dot := range s.vals {
				lid := s.lid(i)
				heap.Push(int(b.ids[lid]), dot*b.lens[lid])
			}
		}
	}
	var next atomic.Int64
	sampleWorker := func() {
		s := ix.getScratch()
		defer ix.putScratch(s)
		var heap *topk.Heap
		if kk > 0 {
			heap = topk.New(kk)
		}
		for !c.canceled() {
			si := int(next.Add(1)) - 1
			if si >= len(sample) {
				return
			}
			sampleQuery(si, s, heap)
		}
	}
	var wg sync.WaitGroup
	for w := min(c.opts.Parallelism, len(sample)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sampleWorker()
		}()
	}
	sampleWorker() // the caller is the first worker
	wg.Wait()
	if c.canceled() {
		return nil, c.ctxErr()
	}

	obs := make([][]observation, len(ix.scan))
	for _, row := range perSample {
		for _, bo := range row {
			obs[bo.bi] = append(obs[bo.bi], bo.o)
		}
	}
	fit := make([]tunedParam, len(ix.scan))
	if deltaOnly {
		copy(fit, ix.frozen)
	}
	for bi := range ix.scan {
		if target(bi) {
			fit[bi] = ix.fitBucket(c.opts, obs[bi])
		}
	}
	return fit, nil
}

// observe measures one (query, bucket) pair: the coordinate-family cost
// for every candidate φ, then the LENGTH cost, each including candidate
// verification (the dominant term) by verifyCands, the scan's own per-pair
// step, against the pair's cut theta — so a method is charged the int8 screen
// plus the exact rows of its survivors where the scan would screen, and the
// exact rows alone where it would not. LENGTH goes last so that it is timed
// as warm as the φ passes before it, and so that on return the scratch
// holds LENGTH's candidate set — with its verified dot products in s.vals
// unless TuneByCost, which counts work instead of verifying — for the
// Row-Top-k sample to advance its threshold from. The bucket's sorted lists
// are built beforehand, over the call's parallelism, and so is the sidecar a
// timed pass could be the first to ask for: no measurement times a build.
func (ix *Index) observe(c *call, bi int, qi int32, qdir []float64, qlen, theta, thetaB float64, s *scratch) observation {
	b := ix.scan[bi]
	o := observation{thetaB: thetaB, costPhi: make([]float64, c.opts.MaxPhi+1)}
	byCost := c.opts.TuneByCost
	b.ensureLists(c.opts.Parallelism)
	if ix.autoScreen && !byCost {
		b.ensureSidecar()
	}

	measure := func(gather func()) float64 {
		s.work = 0
		start := time.Now()
		gather()
		if byCost {
			return float64(s.work + int64(len(s.cand))*int64(b.r))
		}
		var mst Stats
		ix.verifyCands(bi, s, qi, qdir, qlen, theta, c.approx, &mst)
		var acc float64
		for i, dot := range s.vals {
			acc += dot * qlen * b.lens[s.lid(i)]
		}
		verifySink.Store(math.Float64bits(acc)) // defeat dead-code elimination
		return float64(time.Since(start))
	}

	incr := c.opts.Algorithm == AlgLI || c.opts.Algorithm == AlgI
	for _, phi := range ix.tunePhis(c.opts) {
		o.costPhi[phi] = measure(func() {
			if incr && phi > 1 {
				runIncr(b, qdir, qlen, theta, thetaB, phi, s)
			} else {
				runCoord(b, qdir, thetaB, phi, s)
			}
		})
	}
	o.costL = measure(func() { runLength(b, theta, qlen, s) })
	return o
}

// verifySink absorbs verification results during tuning so the compiler
// cannot elide the measured inner products. It is atomic because distinct
// indexes (e.g. server shards) may tune concurrently.
var verifySink atomic.Uint64

// tunePhis returns the φ values the tuner tries under options o: all of
// 1..MaxPhi when φ is tuned, or just the fixed value.
func (ix *Index) tunePhis(o Options) []int {
	if o.Phi > 0 {
		phi := o.Phi
		if phi > ix.r && ix.r > 0 {
			phi = ix.r
		}
		return []int{phi}
	}
	maxPhi := o.MaxPhi
	if maxPhi > ix.r && ix.r > 0 {
		maxPhi = ix.r
	}
	phis := make([]int, 0, maxPhi)
	for phi := 1; phi <= maxPhi; phi++ {
		phis = append(phis, phi)
	}
	return phis
}

// fitBucket selects φ_b and t_b from one bucket's observations under
// options o.
func (ix *Index) fitBucket(o Options, obs []observation) tunedParam {
	p := tunedParam{tuned: true, tb: defaultTB, phi: ix.defaultPhi(o)}
	if len(obs) == 0 {
		return p
	}
	phis := ix.tunePhis(o)
	if len(phis) == 0 {
		return p
	}
	// φ_b: smallest total coordinate-method cost over the sample.
	bestPhi, bestCost := phis[0], math.Inf(1)
	for _, phi := range phis {
		var total float64
		for _, o := range obs {
			total += o.costPhi[phi]
		}
		if total < bestCost {
			bestPhi, bestCost = phi, total
		}
	}
	p.phi = bestPhi
	if !o.Algorithm.needsTB() {
		return p
	}
	// t_b: best split of the θ_b-sorted sample between LENGTH (below)
	// and the coordinate method (above).
	sort.Slice(obs, func(i, j int) bool { return obs[i].thetaB < obs[j].thetaB })
	suffix := make([]float64, len(obs)+1)
	for i := len(obs) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + obs[i].costPhi[bestPhi]
	}
	var prefixL float64
	bestSplit, bestTotal := 0, suffix[0] // split 0: coordinate method always
	for i := 0; i < len(obs); i++ {
		prefixL += obs[i].costL
		if total := prefixL + suffix[i+1]; total < bestTotal {
			bestSplit, bestTotal = i+1, total
		}
	}
	switch bestSplit {
	case 0:
		p.tb = 0 // θ_b < 0 never holds against a positive threshold
	case len(obs):
		p.tb = math.Inf(1) // always LENGTH
	default:
		// Observations below the split use LENGTH: any t_b strictly
		// between the two neighboring θ_b values realizes the split.
		p.tb = (obs[bestSplit-1].thetaB + obs[bestSplit].thetaB) / 2
	}
	return p
}

// sampleIndices spreads up to want indices evenly over [0, n).
func sampleIndices(n, want int) []int {
	if n <= want {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, want)
	for i := range out {
		out[i] = i * n / want
	}
	return out
}
