package server

import (
	"context"
	"sync/atomic"
	"testing"

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
	// Force lazy sidecar builds out of the measured region.
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
