package main

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"lemp"
	"lemp/internal/data"
	"lemp/internal/topk"
	"lemp/internal/vecmath"
)

// Every input is a pure function of -seed: each stream below has its own
// generator seeded from (seed, stream), so adding a draw to one stream
// never shifts another.
const (
	streamCatalog = iota + 1
	streamQueries
	streamOps
	streamUpdates
	streamKernels
)

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

func genCatalog(seed int64, n int, cov float64) *lemp.Matrix {
	return data.GenerateVectors(newRand(seed, streamCatalog), n, dim, cov, 1, false)
}

func genQueries(seed int64, n int) *lemp.Matrix {
	return data.GenerateVectors(newRand(seed, streamQueries), n, dim, queryCoV, 1, false)
}

// thetaForResults returns the θ at which the Above-θ result of the sample
// queries against the catalog holds perQuery·q.N() entries: the
// (perQuery·q.N())-th largest of all their products, found exactly by
// brute force over a bounded heap.
func thetaForResults(q, p *lemp.Matrix, perQuery, workers int) float64 {
	target := perQuery * q.N()
	if max := q.N() * p.N(); target > max {
		target = max
	}
	if target < 1 {
		return math.Inf(1)
	}
	if workers < 1 {
		workers = 1
	}
	const block = 1024
	heaps := make([]*topk.Heap, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		heaps[w] = topk.New(target)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]float64, block)
			r := p.R()
			pd := p.Data()
			for i := w; i < q.N(); i += workers {
				qi := q.Vec(i)
				for lo := 0; lo < p.N(); lo += block {
					hi := min(lo+block, p.N())
					vecmath.DotBatch(qi, pd[lo*r:hi*r], out[:hi-lo])
					for _, v := range out[:hi-lo] {
						heaps[w].Push(0, v)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var vals []float64
	for _, h := range heaps {
		for _, it := range h.Items() {
			vals = append(vals, it.Value)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	return vals[target-1]
}

// opKind is the type of one request of a workload's traffic.
type opKind uint8

const (
	opTopK   opKind = iota // single-row POST /v1/topk
	opAbove                // single-row POST /v1/above
	opTopK16               // 16-row POST /v1/topk
	opUpdate               // POST /v1/update, 8 ops
)

func (k opKind) String() string {
	return [...]string{"topk", "above", "topk16", "update"}[k]
}

func (k opKind) path() string {
	switch k {
	case opAbove:
		return "/v1/above"
	case opUpdate:
		return "/v1/update"
	}
	return "/v1/topk"
}

// op is one pre-encoded request. Reads name their query rows (row..row+rows
// of the workload's query matrix) so the check can recompute the answer;
// updates index the workload's update batches.
type op struct {
	kind  opKind
	hot   bool // drawn from serve_mixed's hot pool: the result cache may answer it
	body  []byte
	row   int32
	rows  int32
	k     int32
	batch int32
}

func appendVec(b []byte, v []float64) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	return append(b, ']')
}

func appendQueries(b []byte, q *lemp.Matrix, row, rows int) []byte {
	b = append(b, `{"queries":[`...)
	for i := 0; i < rows; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendVec(b, q.Vec(row+i))
	}
	return append(b, ']')
}

func topKOp(q *lemp.Matrix, row, rows, k int) op {
	b := appendQueries(nil, q, row, rows)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, '}')
	kind := opTopK
	if rows > 1 {
		kind = opTopK16
	}
	return op{kind: kind, body: b, row: int32(row), rows: int32(rows), k: int32(k)}
}

func aboveOp(q *lemp.Matrix, row, rows int, theta float64) op {
	b := appendQueries(nil, q, row, rows)
	b = append(b, `,"theta":`...)
	b = strconv.AppendFloat(b, theta, 'g', -1, 64)
	b = append(b, '}')
	return op{kind: opAbove, body: b, row: int32(row), rows: int32(rows)}
}

// updatePlan generates update batches that stay valid in any interleaving:
// every batch touches ids no other batch touches, so concurrent clients
// never race on an id and the catalog after any set of applied batches does
// not depend on their order.
//
// Batch j is 4 adds under explicit fresh ids (n+4j .. n+4j+3), 2 updates of
// original probes drawn without replacement, and 2 removes: of two probes
// added by batch j-removeLag once that exists, before that of original
// probes from a reserved list. removeLag is far larger than the number of
// requests in flight, so the batch whose adds are removed has been applied.
type updatePlan struct {
	n       int // catalog size the ids start after
	touched map[int32]bool
	batches [][]lemp.ProbeUpdate
}

const (
	updateBatchOps = 8
	removeLag      = 256
)

func genUpdatePlan(seed int64, n, batches int) *updatePlan {
	rng := newRand(seed, streamUpdates)
	perm := rng.Perm(n)
	// Each batch needs two original probes to update, and each of the first
	// removeLag two more to remove; a small catalog gets fewer batches.
	if batches > removeLag && 2*removeLag+2*batches > n {
		batches = max(removeLag, (n-2*removeLag)/2)
	}
	if batches <= removeLag {
		batches = min(batches, n/4)
	}
	reserved := perm[:2*min(batches, removeLag)]
	targets := perm[len(reserved):]
	up := &updatePlan{n: n, touched: make(map[int32]bool)}
	vec := func() []float64 {
		return data.GenerateVectors(rng, 1, dim, 0, 1, false).Vec(0)
	}
	for j := 0; j < batches; j++ {
		b := make([]lemp.ProbeUpdate, 0, updateBatchOps)
		for a := 0; a < 4; a++ {
			b = append(b, lemp.ProbeUpdate{Op: lemp.OpAdd, ID: int32(n + 4*j + a), Vec: vec()})
		}
		for u := 0; u < 2; u++ {
			id := int32(targets[2*j+u])
			up.touched[id] = true
			b = append(b, lemp.ProbeUpdate{Op: lemp.OpUpdate, ID: id, Vec: vec()})
		}
		for r := 0; r < 2; r++ {
			var id int32
			if j < removeLag {
				id = int32(reserved[2*j+r])
				up.touched[id] = true
			} else {
				id = int32(n + 4*(j-removeLag) + r)
			}
			b = append(b, lemp.ProbeUpdate{Op: lemp.OpRemove, ID: id})
		}
		up.batches = append(up.batches, b)
	}
	return up
}

// untouched reports whether probe id still holds its original catalog
// vector whatever updates were applied.
func (up *updatePlan) untouched(id int) bool {
	return id < up.n && !up.touched[int32(id)]
}

func updateOp(batch int, ups []lemp.ProbeUpdate) op {
	b := []byte(`{"updates":[`)
	for i, u := range ups {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"op":"`...)
		switch u.Op {
		case lemp.OpAdd:
			b = append(b, "add"...)
		case lemp.OpRemove:
			b = append(b, "remove"...)
		default:
			b = append(b, "update"...)
		}
		b = append(b, `","id":`...)
		b = strconv.AppendInt(b, int64(u.ID), 10)
		if u.Vec != nil {
			b = append(b, `,"vector":`...)
			b = appendVec(b, u.Vec)
		}
		b = append(b, '}')
	}
	b = append(b, "]}"...)
	return op{kind: opUpdate, body: b, batch: int32(batch), rows: int32(len(ups))}
}

// Mix shares of serve_mixed, in tenths of the traffic.
const (
	mixTopKShare   = 6 // single-row top-k, k in {1, 10, 50}
	mixAboveShare  = 2 // single-row Above-θ
	mixTopK16Share = 1 // 16-row top-k, k = 10
	// the remaining tenth is update batches

	hotPool     = 2048 // queries the Zipf draws come from
	hotShare    = 0.3  // of the single-row top-k requests
	zipfS       = 1.1
	multiRows   = 16
	multiPool   = 512
	coldPoolMin = 16384
)

var mixKs = [...]int{1, 10, 50}

// Shares of each kind of op in a workload's traffic, as mixCost weighs them.
var (
	readShares  = map[opKind]float64{opTopK: 1}
	mixedShares = map[opKind]float64{opTopK: mixTopKShare, opAbove: mixAboveShare, opTopK16: mixTopK16Share, opUpdate: 10 - mixTopKShare - mixAboveShare - mixTopK16Share}
)

// readPool is the pre-encoded single-row top-k traffic of serve_flat and
// serve_skew: unique queries cycled in order. The pool holds several times
// more rows than the server's result cache can (65 536 entries / k = 10),
// so under LRU a cycled query is always evicted before it returns and the
// cache never hits.
func readPool(q *lemp.Matrix, k int) []op {
	ops := make([]op, q.N())
	for i := range ops {
		ops[i] = topKOp(q, i, 1, k)
	}
	return ops
}

// mixedStream draws n ops of the serve_mixed traffic. Query rows are laid
// out in q as: hot pool, 16-row groups, then the cold rows the cold top-k
// and the Above-θ requests cycle through. The stream is consumed once, in
// order; only its update batches are single-use, so it ends when they do.
func mixedStream(seed int64, q *lemp.Matrix, theta float64, plan *updatePlan, n int) []op {
	rng := newRand(seed, streamOps)
	zipf := rand.NewZipf(rng, zipfS, 1, hotPool-1)
	hotK := make([]int, hotPool)
	for i := range hotK {
		hotK[i] = mixKs[rng.Intn(len(mixKs))]
	}
	hot := make([]op, hotPool)
	multi := make([]op, multiPool)
	for i := range multi {
		multi[i] = topKOp(q, hotPool+i*multiRows, multiRows, 10)
	}
	coldStart := hotPool + multiPool*multiRows
	cold := q.N() - coldStart
	coldTopK := make([]op, cold)
	coldAbove := make([]op, cold)
	var nextTopK, nextAbove, nextMulti, nextUpdate int

	ops := make([]op, 0, n)
	for len(ops) < n {
		switch d := rng.Intn(10); {
		case d < mixTopKShare:
			if rng.Float64() < hotShare {
				h := int(zipf.Uint64())
				if hot[h].body == nil {
					hot[h] = topKOp(q, h, 1, hotK[h])
					hot[h].hot = true
				}
				ops = append(ops, hot[h])
				continue
			}
			c := nextTopK % cold
			nextTopK++
			if coldTopK[c].body == nil {
				coldTopK[c] = topKOp(q, coldStart+c, 1, mixKs[rng.Intn(len(mixKs))])
			}
			ops = append(ops, coldTopK[c])
		case d < mixTopKShare+mixAboveShare:
			// Above-θ walks the cold rows from the far end so that it and the
			// cold top-k requests rarely send the same query.
			c := cold - 1 - nextAbove%cold
			nextAbove++
			if coldAbove[c].body == nil {
				coldAbove[c] = aboveOp(q, coldStart+c, 1, theta)
			}
			ops = append(ops, coldAbove[c])
		case d < mixTopKShare+mixAboveShare+mixTopK16Share:
			ops = append(ops, multi[nextMulti%multiPool])
			nextMulti++
		default:
			if nextUpdate == len(plan.batches) {
				return ops
			}
			ops = append(ops, updateOp(nextUpdate, plan.batches[nextUpdate]))
			nextUpdate++
		}
	}
	return ops
}

// mixedQueryRows is how many query rows mixedStream needs for a cold pool
// of the given size.
func mixedQueryRows(cold int) int { return hotPool + multiPool*multiRows + cold }
