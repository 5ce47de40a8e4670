// Clustered: the approximate Row-Top-k mode the paper cites as directly
// composable with LEMP (§5, Koenigstein et al.): cluster the query vectors,
// retrieve exactly only for the cluster centroids, and answer each query
// over its centroid's expanded candidate list. On workloads where queries
// share directions — users with similar tastes — this trades a little
// recall for a large reduction in retrieval work. The example sweeps the
// cluster count and reports recall against the exact answer.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"lemp"
	"lemp/internal/data"
	"lemp/internal/vecmath"
)

func main() {
	const (
		groups = 24 // true taste groups in the synthetic user base
		users  = 4000
		items  = 2500
		r      = 32
		k      = 10
	)
	fmt.Printf("generating %d users in %d taste groups, %d items (r=%d)...\n",
		users, groups, items, r)
	rng := rand.New(rand.NewSource(1))
	q := lemp.NewMatrix(r, users)
	centers := lemp.NewMatrix(r, groups)
	for c := 0; c < groups; c++ {
		v := centers.Vec(c)
		for f := range v {
			v[f] = rng.NormFloat64()
		}
		vecmath.Normalize(v, v)
	}
	for i := 0; i < users; i++ {
		v := q.Vec(i)
		center := centers.Vec(rng.Intn(groups))
		for f := range v {
			v[f] = center[f] + 0.15*rng.NormFloat64()
		}
		vecmath.Scale(v, v, 0.5+2*rng.Float64())
	}
	p := data.GenerateVectors(rng, items, r, 0.8, 1, false)

	index, err := lemp.New(p, lemp.Options{})
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	exact, err := index.Retrieve(ctx, q, lemp.TopK(k))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexact Row-Top-%d: %v, %.0f candidates/query\n",
		k, exact.Stats.TotalTime().Round(1000), exact.Stats.CandidatesPerQuery())

	fmt.Printf("\n%-10s %12s %16s %8s\n", "clusters", "total", "cands/query", "recall")
	for _, clusters := range []int{4, 24, 96, 384} {
		approx, err := index.Retrieve(ctx, q, lemp.TopK(k), lemp.Approx(lemp.ApproxOptions{
			Clusters: clusters, Expand: 8, Seed: 7,
		}))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %12v %16.1f %8.3f\n",
			clusters, approx.Stats.TotalTime().Round(1000), approx.Stats.CandidatesPerQuery(),
			lemp.Recall(exact.TopK, approx.TopK))
	}
	fmt.Println("\nrecall climbs toward 1 as the cluster count approaches the")
	fmt.Println("true group structure; candidate work stays far below exact.")
}
