// Open information extraction: the paper's second application (§1, Riedel
// et al.). Factor matrices in the shape of the paper's IE-NMF dataset
// (sparse, non-negative, strongly length-skewed — the statistics of an NMF
// factorization of an argument–pattern fact matrix) are searched for
// high-confidence facts: Above-θ retrieval, where an entry (i,j) ≥ θ means
// "pattern j is predicted to hold for argument pair i with high
// confidence". The example also shows why LEMP's bucket pruning shines on
// this workload: most fact vectors are short and are never touched.
package main

import (
	"context"
	"fmt"
	"log"

	"lemp"
	"lemp/internal/data"
)

func main() {
	// IE-NMF at a laptop-friendly scale: ~5900 argument pairs (queries),
	// ~1000 patterns (probes), r = 50, CoV of probe lengths 5.53.
	profile, err := data.ByName("IE-NMF")
	if err != nil {
		log.Fatal(err)
	}
	profile = profile.Scale(0.5)
	fmt.Printf("generating %s-shaped factors (Q %dx%d, P %dx%d)...\n",
		profile.Name, profile.R, profile.M, profile.R, profile.N)
	q, p := profile.Generate()

	index, err := lemp.New(p, lemp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("probe matrix bucketized into %d buckets\n", index.NumBuckets())

	// Retrieve all facts with predicted confidence ≥ θ for a sweep of
	// thresholds, streaming so the result set is never materialized.
	ctx := context.Background()
	for _, theta := range []float64{8, 4, 2} {
		var count int64
		res, err := index.Retrieve(ctx, q, lemp.AboveTheta(theta), lemp.Stream(func(lemp.Entry) { count++ }))
		if err != nil {
			log.Fatal(err)
		}
		st := res.Stats
		pairs := st.ProcessedPairs + st.PrunedPairs
		fmt.Printf("θ=%-4g %8d facts  %10v  candidates/query %7.1f  bucket prunes %4.1f%%\n",
			theta, count, (index.PrepTime() + st.TuneTime + st.RetrievalTime).Round(1000), st.CandidatesPerQuery(),
			100*float64(st.PrunedPairs)/float64(pairs))
	}

	// The same retrieval transposed: the paper's Row-Top-k IE experiment
	// finds the k most probable argument pairs per pattern, so P and Q
	// swap roles.
	fmt.Println("\ntop-5 argument pairs per pattern (transposed problem):")
	indexT, err := lemp.New(q, lemp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := indexT.Retrieve(ctx, p, lemp.TopK(5))
	if err != nil {
		log.Fatal(err)
	}
	top, st := res.TopK, res.Stats
	fmt.Printf("retrieved for %d patterns in %v (candidates/query %.1f of %d)\n",
		st.Queries, (indexT.PrepTime() + st.TuneTime + st.RetrievalTime).Round(1000), st.CandidatesPerQuery(), indexT.N())
	fmt.Printf("example: pattern 0 -> argument pairs %d, %d, %d ...\n",
		top[0][0].Probe, top[0][1].Probe, top[0][2].Probe)
}
