package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// A layer's self time is its span minus what its children cover; children
// that overlap (a parallel fan-out) cover their union once, and a child
// that sticks out of its parent is clipped to it.
func TestSelfTimesFromSpanTree(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "request", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "decode", Start: 5, End: 15, Parent: 0},
		{ID: 2, Name: "view", Start: 20, End: 90, Parent: 0},
		{ID: 3, Name: "shard", Start: 25, End: 60, Parent: 2, Shard: 0},
		{ID: 4, Name: "shard", Start: 30, End: 80, Parent: 2, Shard: 1}, // overlaps shard 0
		{ID: 5, Name: "merge", Start: 82, End: 95, Parent: 2},           // ends after its parent
		{ID: 6, Name: "other", Start: 0, End: 40, Parent: -1},
	}
	self := selfTimes(spans)
	want := []time.Duration{
		100 - 10 - 70,              // request: minus decode and view
		10,                         // decode: a leaf
		70 - (80 - 25) - (90 - 82), // view: minus the shards' union and the clipped merge
		35, 50, 13, 40,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
}

func TestLevelSelf(t *testing.T) {
	got := levelSelf([]float64{300, 180, 150, 90, 40})
	want := []float64{120, 30, 60, 50, 40}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("levelSelf = %v, want %v", got, want)
		}
	}
	sum := 0.0
	for _, s := range got {
		sum += s
	}
	if sum != 300 {
		t.Errorf("self times sum to %v, want the outermost level's 300", sum)
	}
}

func TestRecorderWritesJSONL(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("net.http", -1, 7, -1)
	child := rec.begin("core.retrieve", root, 7, 1)
	rec.end(child)
	rec.end(root)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := rec.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, s)
	}
	if len(got) != 2 {
		t.Fatalf("%d lines, want 2", len(got))
	}
	if got[1].Parent != got[0].ID || got[1].Req != 7 || got[1].Shard != 1 || got[1].Name != "core.retrieve" {
		t.Errorf("child span read back as %+v", got[1])
	}
	if got[0].End < got[1].End || got[1].End < got[1].Start {
		t.Errorf("span times out of order: %+v", got)
	}
	if d := rec.durations("core.retrieve"); len(d) != 1 || d[0] != got[1].dur() {
		t.Errorf("durations = %v", d)
	}
}
