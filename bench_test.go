package lemp_test

import (
	"context"
	"testing"
	"time"

	"lemp"
	"lemp/internal/data"
)

// BenchmarkTuningCacheRetrieve measures — and asserts — what a TuningCache
// saves repeat Index.Retrieve calls on the Smoke profile under LI, named
// explicitly because algorithm L has nothing to tune: the first small-batch
// call pays the sample tuning, every repeat restores the fit. Tuning runs at
// about 10× the marginal per-query retrieval work on small batches, so a
// warm call must run in at most 20% of the first call's time. The check
// retries over several cold/warm rounds before failing so a single scheduler
// hiccup cannot flake CI; the Stats assertion (zero tuning passes on warm
// calls) is absolute.
func BenchmarkTuningCacheRetrieve(b *testing.B) {
	q, p := data.Smoke.Generate()
	small := q.Head(2) // the small-batch regime where tuning dominates
	const k = 10

	best := 1.0
	for attempt := 0; attempt < 5 && best > 0.20; attempt++ {
		ix, err := lemp.New(p, lemp.Options{Algorithm: lemp.AlgorithmLI, Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		tc := lemp.NewTuningCache()
		coldStart := time.Now()
		res, err := ix.Retrieve(context.Background(), small, lemp.TopK(k), lemp.WithTuningCache(tc))
		if err != nil {
			b.Fatal(err)
		}
		cold := time.Since(coldStart)
		if res.Stats.Tunings != 1 {
			b.Fatalf("cold call ran %d tunings, want 1", res.Stats.Tunings)
		}
		warm := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			warmStart := time.Now()
			res, err := ix.Retrieve(context.Background(), small, lemp.TopK(k), lemp.WithTuningCache(tc))
			if err != nil {
				b.Fatal(err)
			}
			if d := time.Since(warmStart); d < warm {
				warm = d
			}
			if res.Stats.Tunings != 0 || res.Stats.TuneTime != 0 {
				b.Fatalf("warm call ran %d tunings (%v)", res.Stats.Tunings, res.Stats.TuneTime)
			}
		}
		if ratio := warm.Seconds() / cold.Seconds(); ratio < best {
			best = ratio
		}
		b.ReportMetric(best, "warm/cold")
	}
	if best > 0.20 {
		b.Fatalf("warm tuned call took %.0f%% of the first call, want ≤ 20%%: the TuningCache is not removing repeat-call tuning cost", best*100)
	}
}
