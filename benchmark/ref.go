package main

import (
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lemp"
)

// The reference work: what the two bounded timings (seq_x, par_x) are
// divided by.
//
// On the machines this benchmark runs on, a shared guest with two vCPUs,
// the same binary on the same inputs reads 20-60 % apart from one minute to
// the next: the neighbours take cache, memory bandwidth and whole CPUs away
// for seconds to minutes at a time, which no median inside a 20-second run
// removes. So each round also times work that is none of the program's
// (this file: the standard library and a plain loop) but uses the machine
// the way the program does, and the bounded metrics are the ratio of the
// two. A round's neighbours slow both sides; a change to the program moves
// only the numerator. The reference is sized per catalog to the work the
// seed commit does per query (refRows), because a yardstick that is all
// transport does not follow a request that is two thirds scan, and the
// other way round.
//
// For the serve workloads the reference is a server: the same loopback
// transport and net/http stack, the same request bodies decoded with
// encoding/json, a brute-force scan of refRows catalog rows split over as
// many goroutines as the program has shards, a response the size of a
// top-10 answer. For batch_offline it is the scan alone.
const (
	flatRefRows = 40_000 // LEMP verifies about 39 k candidates per query on flat at k = 10
	skewRefRows = 1_000  // and spends the time of about 1 k scanned rows per query on skew
	refRespSize = 450    // bytes of a single-row top-10 response
)

// refScan returns the largest inner product of q with the r-dimensional
// rows: the benchmark's own loop, no vecmath, so a kernel change in the
// program does not move it.
func refScan(q, rows []float64) float64 {
	best := math.Inf(-1)
	for lo := 0; lo+len(q) <= len(rows); lo += len(q) {
		row := rows[lo : lo+len(q)]
		var s float64
		for j, x := range q {
			s += x * row[j]
		}
		if s > best {
			best = s
		}
	}
	return best
}

// refParts cuts the first rows rows of the catalog into n contiguous parts,
// one per scanning goroutine. The region is the same on every call, as the
// buckets of long probes are that LEMP scans for every query.
func refParts(catalog *lemp.Matrix, rows, n int) [][]float64 {
	rows = min(rows, catalog.N())
	data := catalog.Data()
	parts := make([][]float64, n)
	for i := range parts {
		lo, hi := i*rows/n, (i+1)*rows/n
		parts[i] = data[lo*dim : hi*dim]
	}
	return parts
}

// refScanAll scans every part in its own goroutine and returns when all
// have finished.
func refScanAll(q []float64, parts [][]float64) float64 {
	if len(parts) == 1 {
		return refScan(q, parts[0])
	}
	best := make([]float64, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i int, p []float64) {
			defer wg.Done()
			best[i] = refScan(q, p)
		}(i, p)
	}
	wg.Wait()
	m := best[0]
	for _, b := range best[1:] {
		m = max(m, b)
	}
	return m
}

// refServer is the reference server of the serve workloads.
type refServer struct {
	hs    *http.Server
	base  string
	query []float64
	parts [][]float64
	resp  []byte
	sink  atomic.Uint64
}

func startRefServer(catalog, queries *lemp.Matrix, rows int) (*refServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rs := &refServer{
		base:  "http://" + ln.Addr().String(),
		query: queries.Vec(0),
		parts: refParts(catalog, rows, numShards),
		resp:  make([]byte, refRespSize),
	}
	for i := range rs.resp {
		rs.resp[i] = ' '
	}
	rs.hs = &http.Server{Handler: rs}
	go rs.hs.Serve(ln)
	return rs, nil
}

// ServeHTTP answers any of the workloads' request bodies: decode, scan,
// fixed-size response. What the body asks for is ignored.
func (rs *refServer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var decoded struct {
		Queries [][]float64 `json:"queries"`
		Updates []struct {
			Vector []float64 `json:"vector"`
		} `json:"updates"`
	}
	if err := json.Unmarshal(body, &decoded); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rs.sink.Store(math.Float64bits(refScanAll(rs.query, rs.parts)))
	w.Header().Set("Content-Type", "application/json")
	w.Write(rs.resp)
}

func (rs *refServer) stop() { rs.hs.Close() }

// timeRefScan times passes scans of every part, each part on a goroutine of
// its own that scans it passes times over.
func timeRefScan(q []float64, parts [][]float64, passes int) time.Duration {
	scan := func(part []float64) float64 {
		var sum float64
		for i := 0; i < passes; i++ {
			sum += refScan(q, part)
		}
		return sum
	}
	t0 := time.Now()
	if len(parts) == 1 {
		kernelSink += scan(parts[0])
		return time.Since(t0)
	}
	sums := make([]float64, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		wg.Add(1)
		go func(i int, part []float64) {
			defer wg.Done()
			sums[i] = scan(part)
		}(i, part)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, s := range sums {
		kernelSink += s
	}
	return d
}
