// Recommender: the paper's motivating application (§1). A synthetic
// Netflix-style feedback matrix is factorized with SGD (the same pipeline
// that produced the paper's Netflix dataset, which came from DSGD++), and
// LEMP retrieves the top-10 items per user from the learned factors —
// checked for exactness against brute force on a sample of users.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"lemp"
	"lemp/internal/data"
	"lemp/internal/mf"
	"lemp/internal/vecmath"
)

func main() {
	const (
		users = 3000
		items = 1200
		rank  = 32
		k     = 10
	)
	fmt.Printf("generating feedback matrix (%d users × %d items)...\n", users, items)
	ratings, _, _ := data.GenerateRatings(data.RatingsConfig{
		Users: users, Items: items, Rank: 8, Density: 0.05, Noise: 0.3, Seed: 1,
	})
	fmt.Printf("  %d observed ratings\n", len(ratings))

	fmt.Printf("training rank-%d factorization with SGD...\n", rank)
	start := time.Now()
	model, err := mf.Train(ratings, users, items, mf.Config{
		Rank: rank, Epochs: 12, LearnRate: 0.015, Decay: 0.95, Reg: 0.05, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  trained in %v, RMSE %.3f\n", time.Since(start).Round(time.Millisecond), model.RMSE(ratings))

	// Retrieval: columns of P are item factors, columns of Q user factors.
	index, err := lemp.New(model.Items, lemp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	res, err := index.Retrieve(context.Background(), model.Users, lemp.TopK(k))
	if err != nil {
		log.Fatal(err)
	}
	top, st := res.TopK, res.Stats
	fmt.Printf("retrieved top-%d for %d users in %v (candidates/query %.1f of %d items)\n",
		k, st.Queries, (index.PrepTime() + st.TuneTime + st.RetrievalTime).Round(time.Millisecond), st.CandidatesPerQuery(), items)

	fmt.Println("\nsample recommendations:")
	for _, u := range []int{0, 1, 2} {
		fmt.Printf("  user %d:", u)
		for _, e := range top[u][:3] {
			fmt.Printf(" item%d(%.2f)", e.Probe, e.Value)
		}
		fmt.Println(" ...")
	}

	// Exactness spot-check against brute force.
	fmt.Println("\nverifying against brute force on 50 sampled users...")
	for u := 0; u < 50; u++ {
		bestVal := bruteBest(model, u, items)
		if got := top[u][0].Value; !close(got, bestVal) {
			log.Fatalf("user %d: LEMP top-1 %.6f, brute force %.6f", u, got, bestVal)
		}
	}
	fmt.Println("  exact match.")
}

func bruteBest(m *mf.Model, user, items int) float64 {
	best := vecmath.Dot(m.Users.Vec(user), m.Items.Vec(0))
	for it := 1; it < items; it++ {
		if v := vecmath.Dot(m.Users.Vec(user), m.Items.Vec(it)); v > best {
			best = v
		}
	}
	return best
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+abs(a)+abs(b))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
