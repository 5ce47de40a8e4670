package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"lemp"
	"lemp/internal/matrix"
	"lemp/internal/server"
	"lemp/internal/vecmath"
)

// The placement experiment measures what the pluggable shard placement
// layer buys on a hostile-but-realistic catalog: probe lengths follow a
// Zipf law and the catalog arrives sorted by decreasing length (the order
// a popularity-ranked export naturally has), so contiguous equal-count
// splits concentrate the paper's ~l_b scan cost in the first shard.
// Directions fall into a few clusters, which cluster placement groups.

// placementShards is the shard count for the placement experiment.
const placementShards = 4

// placementWorkload builds the skewed catalog and a directionally focused
// query workload with a high calibrated θ. Deterministic (fixed seed):
// bench runs must be reproducible.
func placementWorkload(scale float64) (p, q *matrix.Matrix, theta float64) {
	rng := rand.New(rand.NewSource(97))
	n := int(3000 * scale)
	if n < 240 {
		n = 240
	}
	m := int(400 * scale)
	if m < 48 {
		m = 48
	}
	const r, nCenters = 16, 4
	centers := make([][]float64, nCenters)
	for c := range centers {
		v := make([]float64, r)
		for f := range v {
			v[f] = rng.NormFloat64()
		}
		vecmath.Normalize(v, v)
		centers[c] = v
	}
	p = matrix.New(r, n)
	for i := 0; i < n; i++ {
		v := p.Vec(i)
		c := centers[i%nCenters]
		for f := range v {
			v[f] = c[f] + 0.2*rng.NormFloat64()
		}
		// Zipf length skew, decreasing with rank: shard 0 of an
		// equal-count contiguous split gets nearly all the mass.
		norm := vecmath.Norm(v)
		vecmath.Scale(v, v, 8.0/(norm*math.Pow(float64(i+1), 0.7)))
	}
	// Queries focus on one cluster direction each.
	q = matrix.New(r, m)
	for i := 0; i < m; i++ {
		v := q.Vec(i)
		c := centers[i%nCenters]
		for f := range v {
			v[f] = c[f] + 0.1*rng.NormFloat64()
		}
		norm := vecmath.Norm(v)
		vecmath.Scale(v, v, 1/norm)
	}
	// Calibrate θ near the top of the product distribution (the paper's
	// high-recall regime, where Above-θ answers are rare): the 99.9th
	// percentile product value.
	heap := make([]float64, 0, q.N()*p.N())
	for i := 0; i < q.N(); i++ {
		qi := q.Vec(i)
		for j := 0; j < p.N(); j++ {
			heap = append(heap, vecmath.Dot(qi, p.Vec(j)))
		}
	}
	theta = quantile(heap, 0.999)
	if theta <= 0 {
		theta = 0.1
	}
	return p, q, theta
}

// quantile returns the q-th quantile of xs (sorts a copy; the calibration
// sets reach millions of products at full scale).
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

// placementRow is one placement strategy's measurements.
type placementRow struct {
	kind    server.PlacementKind
	skew    float64       // max/mean per-shard estimated scan cost
	minScan time.Duration // fastest shard's serial scan time
	maxScan time.Duration // slowest shard's serial scan time
	results int
}

// measurePlacement builds a shard set under one strategy and measures the
// per-shard scan-time spread (each shard scanned serially, after a warmup
// pass that pays tuning) and the result count of one sharded Above-θ call
// at θ.
func measurePlacement(kind server.PlacementKind, p, q *matrix.Matrix, theta float64) (placementRow, error) {
	row := placementRow{kind: kind}
	sh, err := server.NewShardedPlaced(p.Clone(), nil, placementShards, lemp.Options{Parallelism: 1}, kind)
	if err != nil {
		return row, err
	}
	row.skew = sh.CostSkew()
	row.minScan, row.maxScan = time.Duration(math.MaxInt64), 0
	ctx := context.Background()
	for _, ix := range sh.Indexes() {
		if _, err := ix.Retrieve(ctx, q, lemp.AboveTheta(theta)); err != nil { // warmup: tuning + lists
			return row, err
		}
		start := time.Now()
		if _, err := ix.Retrieve(ctx, q, lemp.AboveTheta(theta)); err != nil {
			return row, err
		}
		d := time.Since(start)
		if d < row.minScan {
			row.minScan = d
		}
		if d > row.maxScan {
			row.maxScan = d
		}
	}
	rows, _, err := sh.CurrentView().AboveThetaCtx(context.Background(), q, theta)
	if err != nil {
		return row, err
	}
	for _, es := range rows {
		row.results += len(es)
	}
	return row, nil
}

// placement runs the experiment: all three strategies on the same skewed
// catalog and workload. Exact results are placement-invariant, so the
// result counts double as a cross-check.
func (r *Runner) placement() error {
	r.header("Placement: cost-balanced partitioning (Zipf-length catalog, sorted by length)")
	p, q, theta := placementWorkload(r.cfg.Scale)
	r.logf("catalog n=%d r=%d, %d queries, θ=%.4f, %d shards", p.N(), p.R(), q.N(), theta, placementShards)
	fmt.Fprintf(r.cfg.Out, "%-10s %10s %12s %12s %8s %9s\n",
		"Placement", "CostSkew", "MinShard", "MaxShard", "Spread", "Results")
	wantResults := -1
	for _, kind := range []server.PlacementKind{server.PlaceRange, server.PlaceCost, server.PlaceCluster} {
		row, err := measurePlacement(kind, p, q, theta)
		if err != nil {
			return fmt.Errorf("placement %s: %w", kind, err)
		}
		spread := math.Inf(1)
		if row.minScan > 0 {
			spread = float64(row.maxScan) / float64(row.minScan)
		}
		fmt.Fprintf(r.cfg.Out, "%-10s %9.2fx %12s %12s %7.2fx %9d\n",
			string(row.kind), row.skew, fmtDur(row.minScan), fmtDur(row.maxScan),
			spread, row.results)
		if wantResults == -1 {
			wantResults = row.results
		} else if row.results != wantResults {
			return fmt.Errorf("placement %s returned %d results, others %d (placement must not change results)",
				kind, row.results, wantResults)
		}
	}
	fmt.Fprintln(r.cfg.Out)
	return nil
}
