// This file lives under testdata, so the go tool does not build it with the
// package. It generated v7.snap beside it with the last writer that emitted
// format version 7; compat_test.go gives the command that ran it.

package snapshot

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var v7Dir = flag.String("v7fixture", "", "directory v7.snap is written into")

func TestGenerateV7Fixture(t *testing.T) {
	if *v7Dir == "" {
		t.Skip("no -v7fixture directory given")
	}
	var buf bytes.Buffer
	if err := Write(&buf, fullIndex(t).State()); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[8]; got != 7 {
		t.Fatalf("format version %d, want 7", got)
	}
	if err := os.WriteFile(filepath.Join(*v7Dir, "v7.snap"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
