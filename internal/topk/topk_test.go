package topk

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPushAndItems(t *testing.T) {
	h := New(3)
	for i, v := range []float64{5, 1, 9, 3, 7, 2} {
		h.Push(i, v)
	}
	items := h.Items()
	if len(items) != 3 {
		t.Fatalf("%d items", len(items))
	}
	wantVals := []float64{9, 7, 5}
	wantIDs := []int{2, 4, 0}
	for i := range items {
		if items[i].Value != wantVals[i] || items[i].ID != wantIDs[i] {
			t.Errorf("rank %d: got (%d,%g), want (%d,%g)", i, items[i].ID, items[i].Value, wantIDs[i], wantVals[i])
		}
	}
}

func TestThresholdOnlyWhenFull(t *testing.T) {
	h := New(2)
	if _, ok := h.Threshold(); ok {
		t.Error("threshold available on empty heap")
	}
	h.Push(0, 4)
	if _, ok := h.Threshold(); ok {
		t.Error("threshold available when not full")
	}
	h.Push(1, 9)
	if v, ok := h.Threshold(); !ok || v != 4 {
		t.Errorf("threshold (%g,%v), want (4,true)", v, ok)
	}
	h.Push(2, 6) // evicts 4
	if v, _ := h.Threshold(); v != 6 {
		t.Errorf("threshold %g after eviction, want 6", v)
	}
}

func TestPushRejectsBelowThreshold(t *testing.T) {
	h := New(2)
	h.Push(0, 5)
	h.Push(1, 6)
	if h.Push(2, 4) {
		t.Error("push below threshold retained")
	}
	if h.Push(3, 5) {
		t.Error("push equal to threshold retained (ties broken in favor of incumbents)")
	}
	if !h.Push(4, 7) {
		t.Error("push above threshold rejected")
	}
}

// The tie rule: among equal values (±0 alike) the smaller id wins, whatever
// the push order, and Items lists ties by ascending id.
func TestTiesKeepSmallerIDs(t *testing.T) {
	vals := []float64{2, 1, 1, 1, 0, math.Copysign(0, -1), 1, 0, 2, 1}
	want := []int{0, 8, 1, 2, 3, 6, 9, 4, 5, 7} // by decreasing value, then id
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		h := New(1 + rng.Intn(len(vals)))
		for _, i := range rng.Perm(len(vals)) {
			h.Push(i, vals[i])
		}
		for j, it := range h.Items() {
			if it.ID != want[j] {
				t.Fatalf("k=%d rank %d: id %d, want %d", h.K(), j, it.ID, want[j])
			}
		}
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for k=0")
		}
	}()
	New(0)
}

func TestReset(t *testing.T) {
	h := New(2)
	h.Push(0, 1)
	h.Push(1, 2)
	h.Reset()
	if h.Len() != 0 || h.Full() {
		t.Error("reset did not empty heap")
	}
	h.Push(5, 42)
	items := h.Items()
	if len(items) != 1 || items[0].ID != 5 {
		t.Errorf("after reset: %v", items)
	}
}

// Property: the heap retains exactly the k largest values of any stream.
func TestKeepsKLargestProperty(t *testing.T) {
	f := func(vals []float64, k8 uint8) bool {
		k := int(k8%20) + 1
		h := New(k)
		for i, v := range vals {
			h.Push(i, v)
		}
		got := h.Items()
		want := append([]float64{}, vals...)
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		if k > len(want) {
			k = len(want)
		}
		if len(got) != k {
			return false
		}
		for i := 0; i < k; i++ {
			if got[i].Value != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: retained ids are distinct and values match what was pushed.
func TestIDIntegrity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		vals := make([]float64, n)
		h := New(k)
		for i := range vals {
			vals[i] = rng.NormFloat64()
			h.Push(i, vals[i])
		}
		seen := map[int]bool{}
		for _, it := range h.Items() {
			if seen[it.ID] {
				t.Fatalf("duplicate id %d", it.ID)
			}
			seen[it.ID] = true
			if vals[it.ID] != it.Value {
				t.Fatalf("id %d: value %g, pushed %g", it.ID, it.Value, vals[it.ID])
			}
		}
	}
}
