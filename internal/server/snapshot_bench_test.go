package server

import (
	"bytes"
	"io"
	"testing"

	"lemp"
	"lemp/internal/data"
)

// The startup benchmarks compare the two ways lemp-serve reaches a
// ready-to-serve state: building from the raw matrix pays the bucketization
// (what -save-snapshot pays once), restoring pays deserialization and the
// bucketization it checks the stored buckets against (what -snapshot pays on
// every restart). Neither tunes: the server runs LENGTH.

func BenchmarkStartupBuild(b *testing.B) {
	_, p := data.Smoke.Scale(4).Generate()
	cfg := Config{Options: lemp.Options{Parallelism: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStartupSnapshot(b *testing.B) {
	_, p := data.Smoke.Scale(4).Generate()
	cfg := Config{Options: lemp.Options{Parallelism: 1}}
	built, err := New(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	bufs := writeShardSnapshots(b, built)
	b.Logf("snapshot size: %d bytes", bufs[0].Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewFromSnapshot([]io.Reader{bytes.NewReader(bufs[0].Bytes())}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
