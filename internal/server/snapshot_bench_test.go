package server

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"lemp"
	"lemp/internal/data"
)

// The startup benchmarks compare the two ways lemp-serve reaches a
// ready-to-serve state: building from the raw matrix pays the bucketization
// (what -save-snapshot pays once), restoring pays deserialization and the
// lengths and sidecars of the probes it read (what -snapshot pays on every
// restart) but neither the length sort nor the row copy: the file holds the
// probes in scan order, and the matrix read becomes the bucket rows.
// Neither tunes: the server runs LENGTH. Each runs on these shapes:
//
//   - smoke4: the Smoke catalog × 4 at Parallelism 1, restored from memory;
//   - mixed: the benchmark's serve_mixed catalog — 100 000 × 50 probes with
//     skewed lengths (data.GenerateVectors, CoV 4.44), Quantize (QuantOn on
//     restore), default Parallelism — restored from a file as lemp-serve
//     -snapshot does;
//   - flat (build only): the benchmark's serve_flat catalog — 200 000 × 50
//     probes, CoV 0.40, default Parallelism — and a first 32-row top-10
//     request, whose screen builds the lazy int8 sidecars of the buckets it
//     verifies, as serve_flat's warm-up does.
//
// go test ./internal/server -run '^$' -bench Startup -count 5
type startupShape struct {
	name    string
	catalog func() *lemp.Matrix
	cfg     Config
	file    bool         // restore from an *os.File rather than a bytes.Reader
	warm    *lemp.Matrix // queries of a first top-10 request timed with the build
}

var startupShapes = []startupShape{
	{
		name:    "smoke4",
		catalog: func() *lemp.Matrix { _, p := data.Smoke.Scale(4).Generate(); return p },
		cfg:     Config{Options: lemp.Options{Parallelism: 1}},
	},
	{
		name: "mixed",
		catalog: func() *lemp.Matrix {
			return data.GenerateVectors(rand.New(rand.NewSource(1)), 100_000, 50, 4.44, 1, false)
		},
		cfg:  Config{Options: lemp.Options{Quantize: true}, Quant: lemp.QuantOn},
		file: true,
	},
	{
		name: "flat",
		catalog: func() *lemp.Matrix {
			return data.GenerateVectors(rand.New(rand.NewSource(1)), 200_000, 50, 0.40, 1, false)
		},
		warm: data.GenerateVectors(rand.New(rand.NewSource(2)), 32, 50, 0.40, 1, false),
	},
}

func BenchmarkStartupBuild(b *testing.B) {
	for _, sh := range startupShapes {
		b.Run(sh.name, func(b *testing.B) {
			p := sh.catalog()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv, err := New(p, sh.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if sh.warm != nil {
					if _, _, err := srv.Sharded().CurrentView().TopKCtx(context.Background(), sh.warm, 10); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkStartupSnapshot(b *testing.B) {
	for _, sh := range startupShapes {
		if sh.warm != nil {
			continue
		}
		b.Run(sh.name, func(b *testing.B) {
			built, err := New(sh.catalog(), sh.cfg)
			if err != nil {
				b.Fatal(err)
			}
			raw := writeShardSnapshots(b, built)[0].Bytes()
			b.Logf("snapshot size: %d bytes", len(raw))
			open := func() (io.Reader, func()) { return bytes.NewReader(raw), func() {} }
			if sh.file {
				path := filepath.Join(b.TempDir(), "index.snap")
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					b.Fatal(err)
				}
				open = func() (io.Reader, func()) {
					f, err := os.Open(path)
					if err != nil {
						b.Fatal(err)
					}
					return f, func() { f.Close() }
				}
			}
			built = nil // the restores' GC should not scan the built index
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, done := open()
				_, err := NewFromSnapshot([]io.Reader{r}, sh.cfg)
				done()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
