package core

import (
	"context"
	"math"
	"time"

	"lemp/internal/kmeans"
	"lemp/internal/matrix"
	"lemp/internal/retrieval"
	"lemp/internal/topk"
	"lemp/internal/vecmath"
)

// Approximate Row-Top-k via query clustering, the approach the paper cites
// as directly composable with LEMP (§5, Koenigstein et al. [17]): cluster
// the query vectors, run exact Row-Top-k' only for the cluster centroids
// (k' = Expand·k), and answer each query exactly over its centroid's
// candidate items. Recall is below 1 when a query's true top-k item is
// absent from its centroid's expanded list; it improves with more clusters
// and a larger Expand.

// approxKMeansIters bounds the k-means iterations that cluster the queries.
const approxKMeansIters = 10

// ApproxOptions tune RetrieveApprox.
type ApproxOptions struct {
	// Clusters is the number of query clusters (default √m, at least 1).
	Clusters int
	// Expand retrieves Expand·k candidates per centroid (default 10).
	Expand int
	// Seed drives the clustering initialization (default 1).
	Seed int64
}

func (o ApproxOptions) withDefaults(m int) ApproxOptions {
	if o.Clusters <= 0 {
		o.Clusters = int(math.Sqrt(float64(m)))
		if o.Clusters < 1 {
			o.Clusters = 1
		}
	}
	if o.Expand <= 0 {
		o.Expand = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// RetrieveApprox returns an approximate Row-Top-k answer: per query, k probe
// entries whose values are exact inner products, but which may miss some
// true top-k members (the library's only approximate retrieval mode). It is a
// composite around the executor, not a mode inside it: k-means, one
// centroid job, an exact re-rank. The context is honored between the
// clustering phase and the centroid retrieval, throughout the centroid job,
// and at every query of the final re-ranking pass.
func (ix *Index) RetrieveApprox(ctx context.Context, q *matrix.Matrix, k int, aopts ApproxOptions, ro RunOptions) (retrieval.TopK, Stats, error) {
	// The centroid job is built first, for k itself, so that a bad k or a
	// bad RunOptions is refused before the clustering runs; its k′ is set
	// once the clusters exist.
	centroids, err := ix.NewJob(Problem{K: k}, ro)
	if err != nil {
		return nil, Stats{}, err
	}
	if err := ix.checkDim(q); err != nil {
		return nil, Stats{}, err
	}
	c := newCall(ctx, centroids.opts, nil)
	m := q.N()
	aopts = aopts.withDefaults(m)
	st := Stats{Queries: m, Buckets: len(ix.scan), PrepTime: ix.prepTime}
	out := make(retrieval.TopK, m)
	live := ix.LiveN()
	if m == 0 || live == 0 {
		return out, st, nil
	}

	// Phase 1: cluster the queries (charged to tuning time: it plays the
	// same role — a small upfront investment guiding retrieval).
	tuneStart := time.Now()
	clusters := kmeans.Spherical(q, aopts.Clusters, approxKMeansIters, aopts.Seed)
	st.TuneTime = time.Since(tuneStart)
	if c.canceled() {
		return nil, st, c.ctxErr()
	}

	// Phase 2: Row-Top-k′ for the centroids, k′ = Expand·k clamped to the
	// live probes. On an Options.Quantize index the job runs with approx
	// set: the centroid list is only a candidate pool, so survivors keep
	// their approximate dots and skip the exact kernels — phase 3 re-ranks
	// every candidate with exact products, so result values stay exact
	// either way. An index that screens by itself runs the centroid job like
	// any exact one, screen and rule included: which candidates make the
	// pool must not depend on the host's kernels. The job's work is this
	// call's work, so its stats fold in whole — except its own row count and
	// results, which describe the centroid answer and not this one.
	kk := min(k, live)
	centroids.prob.K = min(kk*aopts.Expand, live)
	centroids.approx = ix.opts.Quantize
	var cst Stats
	centroidTop, err := centroids.run(ctx, clusters.Centroids, nil, centroids.opts.Parallelism, &cst)
	if err != nil {
		return nil, Stats{}, err
	}
	cst.Queries, cst.Results = 0, 0
	st.Add(cst)

	// Phase 3: answer each query exactly over its centroid's candidates.
	// The candidate raw vectors are gathered into a reusable scratch panel
	// (scaled from their bucket-resident unit directions) and verified with
	// one blocked DotBatch pass per query — no per-candidate allocation or
	// map lookup on this path.
	start := time.Now()
	heap := topk.New(kk)
	s := ix.getScratch()
	defer ix.putScratch(s)
	for i := 0; i < m; i++ {
		if c.canceled() {
			return nil, st, c.ctxErr()
		}
		cands := centroidTop[clusters.Assign[i]]
		nc := len(cands)
		if cap(s.panel) < nc*ix.r {
			s.panel = make([]float64, nc*ix.r)
		}
		panel := s.panel[:nc*ix.r]
		for j, e := range cands {
			_, bi, lid, _ := ix.find(int32(e.Probe))
			b := ix.scan[bi]
			vecmath.Scale(panel[j*ix.r:(j+1)*ix.r], b.dir(lid), b.lens[lid])
		}
		if cap(s.vals) < nc {
			s.vals = make([]float64, nc)
		}
		vals := s.vals[:nc]
		vecmath.DotBatch(q.Vec(i), panel, vals)
		heap.Reset()
		for j, e := range cands {
			heap.Push(e.Probe, vals[j])
		}
		st.Candidates += int64(nc)
		st.BlockVerified += int64(nc)
		items := heap.Items()
		row := make([]retrieval.Entry, len(items))
		for t, it := range items {
			row[t] = retrieval.Entry{Query: i, Probe: it.ID, Value: it.Value}
		}
		st.Results += int64(len(row))
		out[i] = row
	}
	st.RetrievalTime += time.Since(start)
	return out, st, nil
}

// Recall returns the fraction of true top-k entries (per exact) that also
// appear in approx, averaged over queries — the quality metric for
// RetrieveApprox. Rows must correspond query by query.
func Recall(exact, approx retrieval.TopK) float64 {
	if len(exact) == 0 {
		return 1
	}
	var sum float64
	var rows int
	for i := range exact {
		if len(exact[i]) == 0 {
			continue
		}
		rows++
		truth := make(map[int]bool, len(exact[i]))
		for _, e := range exact[i] {
			truth[e.Probe] = true
		}
		hit := 0
		if i < len(approx) {
			for _, e := range approx[i] {
				if truth[e.Probe] {
					hit++
				}
			}
		}
		sum += float64(hit) / float64(len(exact[i]))
	}
	if rows == 0 {
		return 1
	}
	return sum / float64(rows)
}
