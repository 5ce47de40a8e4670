// This file lives under testdata, so the go tool does not build it. It
// generated legacy2.snap.0 and legacy2.snap.1 beside it in the server package
// of a build whose server still split its catalog into shards; the header of
// internal/server/legacy_test.go gives the command that ran it.

package server

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"lemp"
)

var fixtureDir = flag.String("fixtures", "", "directory the legacy snapshot set is written into")

func TestGenerateLegacySet(t *testing.T) {
	if *fixtureDir == "" {
		t.Skip("no -fixtures directory given")
	}
	srv, err := New(legacyCatalog(), Config{
		Shards: 2, Placement: "cluster",
		Options: lemp.Options{Quantize: true, MinBucketSize: 10, SampleQueries: 8, TuneByCost: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	sample := legacyCatalog().Slice(0, 40)
	for i, ix := range srv.Sharded().Indexes() {
		if err := ix.PretuneTopK(sample, 5); err != nil {
			t.Fatalf("pretuning shard %d: %v", i, err)
		}
	}
	if _, err := srv.Sharded().Update(legacyBatch(), -1); err != nil {
		t.Fatal(err)
	}
	err = srv.WriteSnapshotsWith(func(i, n int) (io.WriteCloser, error) {
		if n != 2 {
			return nil, fmt.Errorf("%d shards, want 2", n)
		}
		return os.Create(filepath.Join(*fixtureDir, fmt.Sprintf("legacy2.snap.%d", i)))
	}, lemp.SnapshotOptions{IncludeLists: true})
	if err != nil {
		t.Fatal(err)
	}
}
