package server

import (
	"bytes"
	"context"
	"io"
	"testing"

	"lemp"
	"lemp/internal/data"
)

// The startup benchmarks compare the two ways lemp-serve reaches a
// ready-to-serve (pretuned) state: building from the raw matrix pays
// bucketization plus sample-based tuning (what -save-snapshot pays once),
// restoring pays deserialization and the bucketization it checks the stored
// buckets against, but no tuning (what -snapshot pays on every restart). BenchmarkFirstBatchAfterRestore
// measures the remaining post-restore cost — the lazily rebuilt per-bucket
// sorted lists — against a lists-carrying (SLST) snapshot that skips it.
// They run LI (benchOptions), named explicitly: under L there is no fit
// to freeze and no list to persist or rebuild.

func BenchmarkStartupBuildPretuned(b *testing.B) {
	q, p := data.Smoke.Scale(4).Generate()
	sample := q.Head(64)
	cfg := Config{Options: benchOptions()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := New(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, ix := range srv.Sharded().Indexes() {
			if err := ix.PretuneTopK(sample, benchK); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkStartupSnapshot(b *testing.B) {
	q, p := data.Smoke.Scale(4).Generate()
	cfg := Config{Options: benchOptions()}
	built, err := New(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, ix := range built.Sharded().Indexes() {
		if err := ix.PretuneTopK(q.Head(64), benchK); err != nil {
			b.Fatal(err)
		}
	}
	bufs := writeShardSnapshots(b, built)
	var total int
	for _, buf := range bufs {
		total += buf.Len()
	}
	b.Logf("snapshot size: %d bytes across %d shards", total, len(bufs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := make([]io.Reader, len(bufs))
		for j, buf := range bufs {
			rs[j] = bytes.NewReader(buf.Bytes())
		}
		if _, err := NewFromSnapshot(rs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchOptions() lemp.Options { return lemp.Options{Algorithm: lemp.AlgorithmLI, Parallelism: 1} }

// BenchmarkFirstBatchAfterRestore measures a restored server's first batch
// — the moment the lazily built sorted lists are (re)constructed — with and
// without the SLST section. The lists variant should spend its time on
// retrieval, not index rebuilds.
func BenchmarkFirstBatchAfterRestore(b *testing.B) {
	q, p := data.Smoke.Scale(4).Generate()
	cfg := Config{Options: benchOptions()}
	built, err := New(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Warm retrieval builds the sorted lists -save-snapshot would persist.
	if _, _, err := built.Sharded().CurrentView().TopKCtx(context.Background(), q.Head(64), benchK); err != nil {
		b.Fatal(err)
	}
	for _, withLists := range []bool{false, true} {
		name := "plain"
		if withLists {
			name = "lists"
		}
		b.Run(name, func(b *testing.B) {
			var bufs []*bytes.Buffer
			err := built.WriteSnapshotsWith(func(i, n int) (io.WriteCloser, error) {
				bufs = append(bufs, &bytes.Buffer{})
				return nopWriteCloser{bufs[i]}, nil
			}, lemp.SnapshotOptions{IncludeLists: withLists})
			if err != nil {
				b.Fatal(err)
			}
			batch := q.Head(16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				srv, err := NewFromSnapshot(snapshotReaders(bufs), cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := srv.Sharded().CurrentView().TopKCtx(context.Background(), batch, benchK); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
