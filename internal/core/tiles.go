package core

import "sync/atomic"

// tileCursor hands out contiguous tiles of a query range to a pool of
// workers through one atomic counter. It replaces the static
// chunk := n/workers split: with pre-cut chunks one worker stuck on a run
// of expensive queries (a skewed catalog concentrates candidates on the
// longest queries, and the query set is sorted by length) serializes the
// whole call while its peers sit idle. Claiming small tiles dynamically
// keeps every worker busy until the range is drained — the last tile
// bounds the straggler tax, not the largest pre-cut chunk.
//
// Output stays byte-identical to the static split: result rows are keyed
// by query id (disjoint across tiles) and per-worker stats are summed,
// both independent of which worker answered which tile.
type tileCursor struct {
	next atomic.Int64
	n    int
	tile int
}

// newTileCursor sizes tiles so each worker expects several claims (good
// balance) while a tile still amortizes its claim and scratch-warmup cost
// across multiple queries.
func newTileCursor(n, workers int) *tileCursor {
	tile := n / (workers * 8)
	if tile > 64 {
		tile = 64
	}
	if tile < 1 {
		tile = 1
	}
	c := &tileCursor{n: n, tile: tile}
	return c
}

// claim returns the next unclaimed tile [lo, hi), or ok=false when the
// range is drained.
func (c *tileCursor) claim() (lo, hi int, ok bool) {
	end := c.next.Add(int64(c.tile))
	lo = int(end) - c.tile
	if lo >= c.n {
		return 0, 0, false
	}
	hi = lo + c.tile
	if hi > c.n {
		hi = c.n
	}
	return lo, hi, true
}
