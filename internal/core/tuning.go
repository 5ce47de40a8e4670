package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
	if c.gen != nil || !ix.needsTuning(c.opts) || ix.LiveN() == 0 || qs.n() == 0 {
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
	fit, err := ix.tune(c, qs, prob)
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
// only the per-bucket algorithm choice is affected. The sample and problem
// are retained, and a snapshot persists them: FromState pretunes a restored
// index on them, which is how a snapshot-loaded index answers queries with
// zero tuning time, and Compact its re-bucketization. Pretune is the one
// maker of a frozen fit; an update batch tunes nothing.
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
	qs, err := prepareQueries(q)
	if err != nil {
		return err
	}
	ix.frozen = nil
	if ix.opts.hasTunableParams() && ix.LiveN() > 0 {
		ix.frozen, _ = ix.tune(newCall(nil, ix.opts, nil), qs, prob) // never canceled
	}
	ix.pretuned = true
	// Retain the sample and problem so Compact can pretune again after
	// re-bucketization (the sample is small; cloning detaches it from
	// caller-owned storage).
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

// tunePair is one meeting of a sample query with scan bucket bi, as a real
// run would see it: the query's sorted index and length, the cut θ it brings
// — the problem's, or its heap's running θ′ — and θ_b ∈ (0, 1], at or below 0
// resolve forces LENGTH.
type tunePair struct {
	bi, qi              int32
	qlen, theta, thetaB float64
}

// tunePatience is how many buckets in a row LENGTH must sweep (t_b = +Inf)
// before the tuner stops observing at lower θ_b. One could be a bucket whose
// timings a stall tipped; two are the frontier the fits of a flat catalog
// show: finite t_b on one band of deep buckets and nowhere above it.
const tunePatience = 2

// tune runs the sample-based selection under the call's effective options
// and returns the fit of every scan bucket, one entry each — a call's own
// (ensureTuned) or the frozen one (Pretune) — in two phases. First every
// sample query walks the scan — pure arithmetic for Above-θ, LENGTH verified
// by the scan's own per-pair step for Row-Top-k, whose running threshold must
// follow the trajectory of a real run — and records the pairs it meets. Then
// the buckets are fitted deepest first, each from all of its pairs. A
// coordinate method's feasible region only widens as θ_b falls, which is what
// "LENGTH when θ_b < t_b" means: once LENGTH has swept tunePatience fitted
// buckets in a row, a shallower bucket whose largest θ_b does not exceed the
// smallest "largest θ_b" of that run is fitted t_b = +Inf unobserved, and its
// sorted lists are never built. A bucket observed and not swept starts the
// count again; an algorithm without a t_b observes every bucket reached.
//
// Both phases fan out over the call's parallelism, each worker with its own
// scratch, and a bucket's observations stay in sample order, so the fit is a
// serial pass's (bit-identical under TuneByCost, where the costs are counts).
// A call canceled, which is checked at bucket boundaries, returns no fit.
func (ix *Index) tune(c *call, qs *querySet, prob Problem) ([]tunedParam, error) {
	// Every bucket starts from the defaults, which one the sample misses keeps.
	phis := ix.tunePhis(c.opts)
	fit := make([]tunedParam, len(ix.scan))
	for bi := range fit {
		fit[bi] = ix.fitBucket(c.opts, phis, nil)
	}
	kk := min(prob.K, ix.LiveN()) // 0 for Above-θ

	sample := sampleIndices(qs.n(), c.opts.SampleQueries)
	perSample := make([][]tunePair, len(sample))
	ix.spreadScratch(len(sample), c.opts.Parallelism, func(s *scratch, _, si int) {
		qi := sample[si]
		qlen := qs.lens[qi]
		if qlen == 0 {
			return // a zero query scans nothing
		}
		s.beginTile(qi, 1) // a one-query walk: step flushes every pair at once
		var heap topk.Heap
		push := func(b *bucket, _ int32) {
			for i, v := range s.vals {
				heap.Push(int(b.ids[s.lid(i)]), v)
			}
		}
		if kk > 0 {
			heap.Init(kk)
		}
		var trajStats Stats // trajectory verification is not a run; discard
		for bi, b := range ix.scan {
			if c.canceled() {
				return
			}
			theta := prob.Theta
			if kk > 0 {
				theta = heapFloor(&heap)
			}
			thetaB, pruned := localThreshold(theta, qlen, b.lb, 1+ix.slack)
			if pruned {
				break // and so is every later, shorter bucket
			}
			if thetaB > 0 {
				perSample[si] = append(perSample[si], tunePair{int32(bi), int32(qi), qlen, theta, thetaB})
			}
			if kk > 0 {
				runLength(b, theta, qlen, ix.slack, s)
				ix.step(bi, qs, s, int32(qi), theta, &trajStats, push)
			}
		}
	})
	if c.canceled() {
		return nil, c.ctxErr()
	}
	pairs := make([][]tunePair, len(ix.scan))
	for _, row := range perSample {
		for _, p := range row {
			pairs[p.bi] = append(pairs[p.bi], p)
		}
	}

	swept, sweptTop := 0, math.Inf(1) // the current run of LENGTH-swept buckets
	for bi := len(ix.scan) - 1; bi >= 0; bi-- {
		ps := pairs[bi]
		if len(ps) == 0 {
			continue
		}
		top := math.Inf(-1)
		for _, p := range ps {
			top = max(top, p.thetaB)
		}
		if swept >= tunePatience && top <= sweptTop && !ix.sweepOff {
			fit[bi] = tunedParam{tuned: true, tb: math.Inf(1), phi: ix.defaultPhi(c.opts)}
			continue
		}
		b := ix.scan[bi]
		b.ensureLists(c.opts.Parallelism)
		if ix.screenMin > 0 && !c.opts.TuneByCost {
			b.ensureSidecar()
		}
		obs, w := make([]observation, len(ps)), c.opts.MaxPhi+1
		costs := make([]float64, len(ps)*w) // a row of φ costs per pair
		ix.spreadScratch(len(ps), c.opts.Parallelism, func(s *scratch, _, i int) {
			if !c.canceled() {
				obs[i] = ix.observe(c, ps[i], qs, phis, costs[i*w:(i+1)*w], s)
			}
		})
		if c.canceled() {
			return nil, c.ctxErr()
		}
		fit[bi] = ix.fitBucket(c.opts, phis, obs)
		if math.IsInf(fit[bi].tb, 1) { // only an algorithm with a t_b is ever fitted one
			swept, sweptTop = swept+1, min(sweptTop, top)
		} else {
			swept, sweptTop = 0, math.Inf(1)
		}
	}
	return fit, nil
}

// observe measures one pair: the coordinate-family cost for every candidate
// φ, then the LENGTH cost, each including candidate verification (the dominant
// term) by step, the scan's own per-pair step, against the pair's cut —
// so a method is charged the int8 screen plus the exact rows of its survivors
// where the scan would screen, and the exact rows alone where it would not.
// LENGTH goes last so that it is timed as warm as the φ passes before it. No
// measurement times a build: tune has built the bucket's sorted lists and the
// sidecar a timed pass could be the first to ask for, and the query is
// quantized here, ahead of the clock. costPhi is the pair's cost row.
func (ix *Index) observe(c *call, p tunePair, qs *querySet, phis []int, costPhi []float64, s *scratch) observation {
	bi, qlen := int(p.bi), p.qlen
	b := ix.scan[bi]
	qdir, qrow := qs.dir(int(p.qi)), qs.row(int(p.qi))
	o := observation{thetaB: p.thetaB, costPhi: costPhi}
	byCost := c.opts.TuneByCost
	s.beginTile(int(p.qi), 1)
	if b.q8.Load() != nil {
		s.quantQuery(p.qi, qrow)
	}

	measure := func(gather func()) float64 {
		s.work = 0
		start := time.Now()
		gather()
		if byCost {
			return float64(s.work + int64(len(s.cand))*int64(b.r))
		}
		var mst Stats
		var acc float64
		ix.step(bi, qs, s, p.qi, p.theta, &mst, func(*bucket, int32) {
			for _, v := range s.vals {
				acc += v
			}
		})
		verifySink.Store(math.Float64bits(acc)) // defeat dead-code elimination
		return float64(time.Since(start))
	}

	incr := c.opts.Algorithm == AlgLI || c.opts.Algorithm == AlgI
	for _, phi := range phis {
		o.costPhi[phi] = measure(func() {
			if incr && phi > 1 {
				runIncr(b, qdir, qlen, p.theta, p.thetaB, ix.slack, phi, s)
			} else {
				runCoord(b, qdir, p.thetaB, ix.slack, phi, s)
			}
		})
	}
	o.costL = measure(func() { runLength(b, p.theta, qlen, ix.slack, s) })
	return o
}

// verifySink absorbs verification results during tuning so the compiler
// cannot elide the measured inner products. It is atomic because distinct
// indexes, and calls on one index, may tune concurrently.
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
func (ix *Index) fitBucket(o Options, phis []int, obs []observation) tunedParam {
	p := tunedParam{tuned: true, tb: defaultTB, phi: ix.defaultPhi(o)}
	if len(obs) == 0 || len(phis) == 0 {
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
	slices.SortStableFunc(obs, func(x, y observation) int { return cmp.Compare(x.thetaB, y.thetaB) })
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
