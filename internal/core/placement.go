package core

import (
	"sort"

	"lemp/internal/matrix"
	"lemp/internal/vecmath"
)

// Shard-placement support: the serving layer partitions a probe catalog
// across independent indexes, and the same geometry that drives the paper's
// Cauchy–Schwarz bucket bound (§3.2) lifts one level up — a shard whose
// live probes fit in a direction cone of known angular radius and maximum
// length admits a per-query upper bound on any inner product it can
// produce, so whole shards can be skipped before fan-out. This file exposes
// the two quantities a placement strategy needs from core: the per-probe
// scan-cost weight implied by the bucketization, and the direction cone of
// an index's live probe set.

// Cone is the direction cone enclosing an index's live probe set: every
// live probe with nonzero length lies within the cone's angular radius of
// the centroid, and no live probe is longer than MaxLen. For any query q,
// max over live probes p of qᵀp ≤ ‖q‖·MaxLen·max(0, cos(∠(q, centroid) −
// radius)) — the shard-level analogue of the bucket bound.
type Cone struct {
	// Centroid is the unit mean direction of the live probes with nonzero
	// length; nil when there is none (empty or all-zero shard), in which
	// case the cone admits no angular pruning.
	Centroid []float64
	// CosRadius is the cosine of the angular radius: the minimum
	// dot(direction, centroid) over live nonzero probes, padded down one
	// step so stored values stay conservative under floating-point
	// rounding. Meaningless when Centroid is nil.
	CosRadius float64
	// MaxLen is the largest live probe length (0 for an empty shard).
	MaxLen float64
}

// conePad absorbs rounding in the stored radius and in the per-query bound
// arithmetic; it only ever widens the cone.
const conePad = 1e-12

// ScanCostWeights estimates the per-probe scan cost the index built over p
// would incur: probe i's weight is the l_b of the bucket it would land in
// (bucket bound work scales with bucket length mass, not row count — a
// bucket's every member is bounded through its longest vector). The
// boundaries come from the exact bucketize logic, so cost-balanced
// placement partitions by the work the built indexes will actually do.
func ScanCostWeights(p *matrix.Matrix, opts Options) []float64 {
	opts = opts.withDefaults()
	n := p.N()
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	lens := p.Lengths()
	sort.SliceStable(order, func(a, b int) bool { return lens[order[a]] > lens[order[b]] })
	sorted := make([]float64, n)
	for i, id := range order {
		sorted[i] = lens[id]
	}
	for _, sp := range bucketSpans(sorted, opts.ShrinkFactor, opts.MinBucketSize, bucketCapFor(opts, p.R())) {
		lb := sorted[sp[0]]
		for i := sp[0]; i < sp[1]; i++ {
			out[order[i]] = lb
		}
	}
	return out
}

// EstimatedCost sums the live probes' scan-cost weights under the current
// bucketization (including delta buckets): Σ over live entries of their
// bucket's l_b. It is the quantity cost-balanced placement equalizes across
// shards and the placement-skew gauge reports.
func (ix *Index) EstimatedCost() float64 {
	var cost float64
	for bi, b := range ix.scan {
		live := b.size()
		if ix.dead != nil {
			live -= int(ix.dead[bi].n)
		}
		cost += float64(live) * b.lb
	}
	return cost
}

// DirectionCone computes the cone enclosing the index's live probe set.
// Zero-length probes are excluded from the centroid and radius — their
// inner product with any query is 0, which every cone bound (floored at 0)
// already covers. Cost is two passes over the live directions.
func (ix *Index) DirectionCone() *Cone {
	c := &Cone{CosRadius: 1}
	sum := make([]float64, ix.r)
	for bi, b := range ix.scan {
		for lid := 0; lid < b.size(); lid++ {
			if ix.deadSkip(bi, lid) {
				continue
			}
			if l := b.lens[lid]; l > c.MaxLen {
				c.MaxLen = l
			}
			if b.lens[lid] == 0 {
				continue
			}
			d := b.dir(lid)
			for f := range sum {
				sum[f] += d[f]
			}
		}
	}
	centroid := make([]float64, ix.r)
	if vecmath.Normalize(centroid, sum) == 0 {
		// No nonzero live probe, or directions cancel exactly: no usable
		// axis, the cone covers the whole sphere.
		return c
	}
	c.Centroid = centroid
	minDot := 1.0
	for bi, b := range ix.scan {
		for lid := 0; lid < b.size(); lid++ {
			if ix.deadSkip(bi, lid) || b.lens[lid] == 0 {
				continue
			}
			if d := vecmath.Dot(b.dir(lid), centroid); d < minDot {
				minDot = d
			}
		}
	}
	minDot -= conePad
	if minDot < -1 {
		minDot = -1
	}
	c.CosRadius = minDot
	return c
}

// LiveProbes materializes the live probe set — main probes minus tombstones
// plus overlay vectors — as a fresh matrix with its ids in ascending order,
// the gather step of a shard re-placement.
func (ix *Index) LiveProbes() (*matrix.Matrix, []int32) {
	live := ix.liveVecs()
	sort.Slice(live, func(a, b int) bool { return live[a].id < live[b].id })
	return ix.materialize(live)
}
