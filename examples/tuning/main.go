// Tuning: a look inside LEMP's algorithm selection (§4.4). The same
// workload runs under every bucket algorithm — one index built with each
// (Options.Algorithm) — showing the trade-off the paper's Tables 5–6
// measure: LENGTH verifies many candidates cheaply,
// INCR/COORD prune aggressively at some scanning cost — and the mixed LC
// and LI, which pick per bucket and per query, match the best of them. (The
// paper's TA, Tree, L2AP and BLSH baselines run under paper/'s lemp-bench.) The example also demonstrates fixing φ by
// hand, disabling the cache-size bucket limit, and reusing fitted tuning
// parameters across calls with a TuningCache (the serving-path win: repeat
// calls skip §4.4 sample tuning entirely).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"lemp"
	"lemp/internal/data"
)

func main() {
	profile, err := data.ByName("IE-SVDT")
	if err != nil {
		log.Fatal(err)
	}
	profile = profile.Scale(0.35)
	fmt.Printf("dataset %s: Q %dx%d, P %dx%d\n",
		profile.Name, profile.R, profile.M, profile.R, profile.N)
	q, p := profile.Generate()
	const k = 10
	ctx := context.Background()

	// Five algorithms, one index each: an index runs the method it was
	// built with.
	fmt.Printf("\n%-18s %12s %14s %10s\n", "algorithm", "tune+retr", "cands/query", "buckets")
	for _, name := range []string{"L", "C", "I", "LC", "LI"} {
		alg, err := lemp.ParseAlgorithm(name)
		if err != nil {
			log.Fatal(err)
		}
		index, err := lemp.New(p, lemp.Options{Algorithm: alg})
		if err != nil {
			log.Fatal(err)
		}
		res, err := index.Retrieve(ctx, q, lemp.TopK(k))
		if err != nil {
			log.Fatal(err)
		}
		st := res.Stats
		fmt.Printf("LEMP-%-13s %12v %14.1f %10d\n",
			name, (st.TuneTime + st.RetrievalTime).Round(1000), st.CandidatesPerQuery(), index.NumBuckets())
	}

	fmt.Println("\nfixed φ vs tuned φ_b (pure INCR):")
	for _, phi := range []int{1, 2, 3, 5, 0} {
		label := fmt.Sprintf("φ=%d", phi)
		if phi == 0 {
			label = "tuned"
		}
		index, err := lemp.New(p, lemp.Options{Algorithm: lemp.AlgorithmI, Phi: phi})
		if err != nil {
			log.Fatal(err)
		}
		res, err := index.Retrieve(ctx, q, lemp.TopK(k))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s total %12v  cands/query %10.1f\n",
			label, (index.PrepTime() + res.Stats.TuneTime + res.Stats.RetrievalTime).Round(1000), res.Stats.CandidatesPerQuery())
	}

	// A retrieval's fit belongs to that retrieval; what an index can show
	// is the fit PretuneTopK froze on it, which every later call runs under,
	// and which buckets carry an int8 screening sidecar: where the int8
	// kernels are assembly, those whose candidate sets the tuning sample
	// timed with the screen on; none elsewhere (no Options.Quantize here).
	fmt.Println("\nper-bucket selections LI freezes with PretuneTopK (first 8 buckets):")
	index, err := lemp.New(p, lemp.Options{Algorithm: lemp.AlgorithmLI})
	if err != nil {
		log.Fatal(err)
	}
	if err := index.PretuneTopK(q, k); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-8s %8s %10s %8s %6s %8s\n", "bucket", "size", "max len", "t_b", "φ_b", "sidecar")
	for i, b := range index.Buckets() {
		if i == 8 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %-8d %8d %10.3f %8.2f %6d %8v\n", i, b.Size, b.MaxLength, b.TB, b.Phi, b.Sidecar)
	}

	fmt.Println("\ncache-aware vs cache-oblivious bucketization:")
	for _, cache := range []int{0, -1} {
		label := "cache-aware (2MiB budget)"
		if cache < 0 {
			label = "cache-oblivious (unbounded)"
		}
		index, err := lemp.New(p, lemp.Options{CacheBytes: cache})
		if err != nil {
			log.Fatal(err)
		}
		res, err := index.Retrieve(ctx, q, lemp.TopK(k))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-28s %4d buckets, total %v\n", label, index.NumBuckets(), (index.PrepTime() + res.Stats.TuneTime + res.Stats.RetrievalTime).Round(1000))
	}

	// Serving-style reuse under LI (L never tunes): per-call
	// tuning dominates small batches, and a TuningCache removes it from
	// every call after the first.
	fmt.Println("\ntuning reuse on a small batch under LI (2 queries, k=10):")
	index, err = lemp.New(p, lemp.Options{Algorithm: lemp.AlgorithmLI})
	if err != nil {
		log.Fatal(err)
	}
	tc := lemp.NewTuningCache()
	small := q.Head(2)
	for _, call := range []string{"cold", "warm", "warm"} {
		start := time.Now()
		res, err := index.Retrieve(ctx, small, lemp.TopK(k), lemp.WithTuningCache(tc))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-5s call: %10v  (sample tunings: %d, cache hits: %d)\n",
			call, time.Since(start).Round(1000), res.Stats.Tunings, res.Stats.TuneCacheHits)
	}
}
