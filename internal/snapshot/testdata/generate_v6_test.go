// This file lives under testdata, so the go tool does not build it with the
// package. It generated v6.snap beside it with the last writer that emitted
// format version 6; TestReadsOlderFormats (compat_test.go) gives the command
// that ran it.

package snapshot

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var v6Dir = flag.String("v6fixture", "", "directory v6.snap is written into")

func TestGenerateV6Fixture(t *testing.T) {
	if *v6Dir == "" {
		t.Skip("no -v6fixture directory given")
	}
	var buf bytes.Buffer
	if err := WriteWith(&buf, fullIndex(t).State(), WriteOptions{IncludeLists: true}); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[8]; got != 6 {
		t.Fatalf("format version %d, want 6", got)
	}
	if err := os.WriteFile(filepath.Join(*v6Dir, "v6.snap"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
