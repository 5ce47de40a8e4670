package server

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"lemp"
	"lemp/internal/data"
)

// benchSharded builds a larger sharded index so per-call overhead and
// retrieval work are both visible.
func benchSharded(b *testing.B) (*Sharded, *lemp.Matrix) {
	b.Helper()
	profile := data.Smoke.Scale(4)
	q, p := profile.Generate()
	sh, err := shardedOver(p, lemp.Options{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Force lazy index builds and tuning out of the measured region.
	if _, _, err := sh.CurrentView().TopKCtx(context.Background(), q.Head(64), benchK); err != nil {
		b.Fatal(err)
	}
	return sh, q
}

const benchK = 10

// BenchmarkDispatchPerRequest drives concurrent single-query clients through
// the batcher, one sharded retrieval call per query.
func BenchmarkDispatchPerRequest(b *testing.B) {
	sh, q := benchSharded(b)
	batcher := &Batcher{sharded: sh}
	n := q.N()
	var i atomic.Int64
	// Many more in-flight clients than cores.
	b.SetParallelism(64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			row := int(i.Add(1)) % n
			if _, _, err := batcher.TopKAt(context.Background(), sh.CurrentView(), q.Vec(row), 1, benchK); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkTuningCacheServing measures — and asserts — the serving win of
// the shared TuningCache on the Smoke profile under LI, named explicitly
// because algorithm L has nothing to tune: the first small-batch call pays
// per-shard sample tuning, every repeat restores the fit. The ROADMAP
// measured tuning at ~10× the marginal per-query retrieval work on small
// batches, so a warm call must run in at most 20% of the first call's
// time. The check retries over several cold/warm rounds before failing so
// a single scheduler hiccup cannot flake CI; the Stats assertion (zero
// tuning passes on warm calls) is absolute.
func BenchmarkTuningCacheServing(b *testing.B) {
	q, p := data.Smoke.Generate()
	small := q.Head(2) // the small-batch regime where tuning dominates

	best := 1.0
	for attempt := 0; attempt < 5 && best > 0.20; attempt++ {
		sh, err := shardedOver(p, lemp.Options{Algorithm: lemp.AlgorithmLI, Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		coldStart := time.Now()
		_, coldSt, err := sh.CurrentView().TopKCtx(context.Background(), small, benchK)
		if err != nil {
			b.Fatal(err)
		}
		cold := time.Since(coldStart)
		if coldSt.Tunings != 1 {
			b.Fatalf("cold call ran %d tunings, want 1", coldSt.Tunings)
		}
		warm := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			warmStart := time.Now()
			_, warmSt, err := sh.CurrentView().TopKCtx(context.Background(), small, benchK)
			if err != nil {
				b.Fatal(err)
			}
			if d := time.Since(warmStart); d < warm {
				warm = d
			}
			if warmSt.Tunings != 0 || warmSt.TuneTime != 0 {
				b.Fatalf("warm call ran %d tunings (%v)", warmSt.Tunings, warmSt.TuneTime)
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
