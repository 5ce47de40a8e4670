package retrieval

import (
	"testing"
	"testing/quick"
)

func TestCollect(t *testing.T) {
	var out []Entry
	sink := Collect(&out)
	sink(Entry{1, 2, 3})
	sink(Entry{4, 5, 6})
	if len(out) != 2 || out[1].Probe != 5 {
		t.Fatalf("collected %v", out)
	}
}

func TestSortCanonical(t *testing.T) {
	es := []Entry{{2, 1, 0}, {1, 9, 0}, {1, 2, 0}, {2, 0, 0}}
	Sort(es)
	want := []Entry{{1, 2, 0}, {1, 9, 0}, {2, 0, 0}, {2, 1, 0}}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("order %v", es)
		}
	}
}

func TestEqualSets(t *testing.T) {
	a := []Entry{{1, 2, 0.5}, {3, 4, 0.7}}
	b := []Entry{{3, 4, 0.9}, {1, 2, 0.1}} // values ignored
	if !EqualSets(a, b) {
		t.Error("permuted sets not equal")
	}
	if EqualSets(a, a[:1]) {
		t.Error("different sizes equal")
	}
	c := []Entry{{1, 2, 0}, {3, 5, 0}}
	if EqualSets(a, c) {
		t.Error("different pairs equal")
	}
	// Multiset semantics: duplicates must count.
	d := []Entry{{1, 1, 0}, {1, 1, 0}}
	e := []Entry{{1, 1, 0}, {2, 2, 0}}
	if EqualSets(d, e) {
		t.Error("multiset mismatch equal")
	}
	if !EqualSets(nil, nil) {
		t.Error("empty sets not equal")
	}
}

// Property: EqualSets is symmetric and invariant under permutation.
func TestEqualSetsProperties(t *testing.T) {
	perm := func(es []Entry) bool {
		if len(es) < 2 {
			return true
		}
		shuffled := make([]Entry, len(es))
		copy(shuffled, es)
		shuffled[0], shuffled[len(es)-1] = shuffled[len(es)-1], shuffled[0]
		return EqualSets(es, shuffled) && EqualSets(shuffled, es)
	}
	if err := quick.Check(perm, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeTopK(t *testing.T) {
	// Two shards' rows for two queries, each sorted by decreasing value.
	a := TopK{
		{{0, 0, 9}, {0, 1, 5}, {0, 2, 1}},
		{{1, 0, 2}},
	}
	b := TopK{
		{{0, 10, 7}, {0, 11, 6}},
		{{1, 12, 8}, {1, 13, 4}},
	}
	got := MergeTopK(3, a, b)
	want := TopK{
		{{0, 0, 9}, {0, 10, 7}, {0, 11, 6}},
		{{1, 12, 8}, {1, 13, 4}, {1, 0, 2}},
	}
	if len(got) != len(want) {
		t.Fatalf("rows %d, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d: %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d: %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestMergeTopKEdgeCases(t *testing.T) {
	if got := MergeTopK(3); got != nil {
		t.Fatalf("no parts: %v", got)
	}
	// Empty rows and short parts are tolerated.
	got := MergeTopK(2, TopK{{}, {{1, 4, 2}}}, TopK{{{0, 7, 3}}})
	if len(got) != 2 || len(got[0]) != 1 || got[0][0].Probe != 7 || len(got[1]) != 1 {
		t.Fatalf("mixed shapes: %v", got)
	}
	// A short (even empty) first part must not drop later parts' rows.
	got = MergeTopK(2, TopK{}, TopK{{{0, 7, 3}}})
	if len(got) != 1 || len(got[0]) != 1 || got[0][0].Probe != 7 {
		t.Fatalf("short first part: %v", got)
	}
	// Ties merge deterministically by ascending probe id.
	tie := MergeTopK(2, TopK{{{0, 5, 1}}}, TopK{{{0, 3, 1}}})
	if tie[0][0].Probe != 3 || tie[0][1].Probe != 5 {
		t.Fatalf("tie order: %v", tie[0])
	}
}
