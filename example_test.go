package lemp_test

import (
	"context"
	"fmt"
	"log"

	"lemp"
)

// The package examples run on the paper's Fig. 1 factor model: four users,
// five movies, two latent factors.

func fig1Matrices() (q, p *lemp.Matrix) {
	q, err := lemp.MatrixFromVectors([][]float64{
		{3.2, -0.4}, // Adam
		{3.1, -0.2}, // Bob
		{0, 1.8},    // Charlie
		{-0.4, 1.9}, // Dennis
	})
	if err != nil {
		log.Fatal(err)
	}
	p, err = lemp.MatrixFromVectors([][]float64{
		{1.6, 0.6}, // Die Hard
		{1.3, 0.8}, // Taken
		{0.7, 2.7}, // Twilight
		{1, 2.8},   // Amelie
		{0.4, 2.2}, // Titanic
	})
	if err != nil {
		log.Fatal(err)
	}
	return q, p
}

func ExampleIndex_Retrieve_aboveTheta() {
	q, p := fig1Matrices()
	index, err := lemp.New(p, lemp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := index.Retrieve(context.Background(), q, lemp.AboveTheta(4.5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d predictions above 4.5\n", len(res.Entries))
	// Output:
	// 6 predictions above 4.5
}

func ExampleIndex_Retrieve() {
	q, p := fig1Matrices()
	index, err := lemp.New(p, lemp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := index.Retrieve(context.Background(), q, lemp.TopK(1))
	if err != nil {
		log.Fatal(err)
	}
	movies := []string{"Die Hard", "Taken", "Twilight", "Amelie", "Titanic"}
	users := []string{"Adam", "Bob", "Charlie", "Dennis"}
	for u, row := range res.TopK {
		fmt.Printf("%s -> %s (%.2f)\n", users[u], movies[row[0].Probe], row[0].Value)
	}
	// Output:
	// Adam -> Die Hard (4.88)
	// Bob -> Die Hard (4.84)
	// Charlie -> Amelie (5.04)
	// Dennis -> Amelie (4.92)
}

func ExampleIndex_Retrieve_stream() {
	q, p := fig1Matrices()
	index, err := lemp.New(p, lemp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// Stream entries without materializing the result set.
	var count int
	var max float64
	_, err = index.Retrieve(context.Background(), q, lemp.AboveTheta(3.0), lemp.Stream(func(e lemp.Entry) {
		count++
		if e.Value > max {
			max = e.Value
		}
	}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d entries, largest %.2f\n", count, max)
	// Output:
	// 10 entries, largest 5.04
}

func ExampleParseAlgorithm() {
	alg, err := lemp.ParseAlgorithm("lc")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(alg)
	// Output:
	// LC
}
