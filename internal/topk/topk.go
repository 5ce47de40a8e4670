// Package topk provides a bounded top-k collector based on a binary
// min-heap, used by the Row-Top-k drivers of every retrieval algorithm in
// this repository.
package topk

// Item is one (id, value) pair tracked by a Heap.
type Item struct {
	ID    int
	Value float64
}

// Heap keeps the k items with the largest values among everything pushed
// into it. The zero value is unusable; construct with New or prepare a
// pooled value with Init. Ties are broken arbitrarily, matching the paper's
// problem statement.
type Heap struct {
	k     int
	items []Item // min-heap on Value
}

// New returns a collector for the k largest values. k must be positive.
func New(k int) *Heap {
	h := &Heap{}
	h.Init(k)
	return h
}

// Init empties the heap and sets its capacity to k, keeping the item
// storage when it is large enough. It makes a zero or recycled Heap usable,
// so callers holding heaps in a pool need no allocation per reuse.
func (h *Heap) Init(k int) {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	h.k = k
	if cap(h.items) < k {
		h.items = make([]Item, 0, k)
	}
	h.items = h.items[:0]
}

// K returns the capacity of the collector.
func (h *Heap) K() int { return h.k }

// Len returns the number of items currently held (≤ k).
func (h *Heap) Len() int { return len(h.items) }

// Full reports whether k items are held.
func (h *Heap) Full() bool { return len(h.items) == h.k }

// Threshold returns the smallest value currently held, i.e. the running
// lower bound θ′ of the paper's Row-Top-k algorithm. It returns
// -Inf-equivalent behaviour via ok=false when fewer than k items are held,
// because no pruning bound exists yet.
func (h *Heap) Threshold() (v float64, ok bool) {
	if !h.Full() {
		return 0, false
	}
	return h.items[0].Value, true
}

// Push offers (id, value). It returns true if the item was retained (heap
// not yet full, or value beats the current minimum).
func (h *Heap) Push(id int, value float64) bool {
	if len(h.items) < h.k {
		h.items = append(h.items, Item{ID: id, Value: value})
		h.up(len(h.items) - 1)
		return true
	}
	if value <= h.items[0].Value {
		return false
	}
	h.items[0] = Item{ID: id, Value: value}
	h.down(0)
	return true
}

// Items returns the retained items sorted by decreasing value (ties in
// arbitrary order). The heap is consumed: it must not be used afterwards.
func (h *Heap) Items() []Item {
	out := make([]Item, len(h.items))
	for i := len(h.items) - 1; i >= 0; i-- {
		out[i] = h.items[0]
		last := len(h.items) - 1
		h.items[0] = h.items[last]
		h.items = h.items[:last]
		h.down(0)
	}
	return out
}

// Reset empties the heap for reuse with the same k.
func (h *Heap) Reset() { h.items = h.items[:0] }

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Value <= h.items[i].Value {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *Heap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.items[l].Value < h.items[smallest].Value {
			smallest = l
		}
		if r < n && h.items[r].Value < h.items[smallest].Value {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
