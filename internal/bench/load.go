package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"lemp"
	"lemp/internal/data"
	"lemp/internal/server"
)

// The serving-load experiment measures the batcher's latency/throughput
// trade across dispatch modes with closed-loop clients, plus graceful
// degradation under overload. The claims it demonstrates:
//
//   - At low load (1 client), window mode pays the full batch window on
//     every request; continuous mode dispatches an idle key immediately,
//     so its p50 tracks the no-batching baseline.
//   - At high load, continuous mode coalesces exactly the requests that
//     arrive during the previous retrieval and dispatches back-to-back,
//     matching or beating window mode's throughput without its idle gap.
//   - Past the admission-control bound the server sheds with 429 instead
//     of queueing: accepted-request latency stays bounded while the
//     rejection rate absorbs the excess offer.
//
// Results are mode-invariant (the same retrieval runs either way), so the
// correctness story is carried by the server package's differential tests;
// this experiment is about the serving envelope.

// loadModes are the batcher configurations the experiment compares.
var loadModes = []struct {
	name   string
	window time.Duration
	mode   string
}{
	{"none", 0, ""}, // per-request dispatch baseline
	{"window", 2 * time.Millisecond, "window"},
	{"continuous", 2 * time.Millisecond, "continuous"},
}

// loadCell is one (mode, concurrency) measurement.
type loadCell struct {
	clients  int
	ok       int
	shed     int
	qps      float64
	p50, p99 time.Duration
}

// runLoadCell drives the server closed-loop: each client posts a
// single-query top-k request, waits for the response, and immediately
// offers the next, for the cell's duration.
func runLoadCell(ts *httptest.Server, q *lemp.Matrix, clients int, dur time.Duration) (loadCell, error) {
	cell := loadCell{clients: clients}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()

	type workerStats struct {
		lats []time.Duration
		ok   int
		shed int
		err  error
	}
	stats := make([]workerStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := &stats[w]
			for i := 0; time.Now().Before(deadline); i++ {
				body, err := json.Marshal(map[string]any{
					"queries": [][]float64{q.Vec((w*131 + i) % q.N())},
					"k":       10,
				})
				if err != nil {
					ws.err = err
					return
				}
				t0 := time.Now()
				resp, err := client.Post(ts.URL+"/v1/topk", "application/json", bytes.NewReader(body))
				if err != nil {
					ws.err = err
					return
				}
				var sink map[string]any
				json.NewDecoder(resp.Body).Decode(&sink)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ws.lats = append(ws.lats, time.Since(t0))
					ws.ok++
				case http.StatusTooManyRequests:
					ws.shed++
				default:
					ws.err = fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lats []time.Duration
	for i := range stats {
		if stats[i].err != nil {
			return cell, stats[i].err
		}
		lats = append(lats, stats[i].lats...)
		cell.ok += stats[i].ok
		cell.shed += stats[i].shed
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	cell.qps = float64(cell.ok) / elapsed.Seconds()
	cell.p50 = pctDur(lats, 0.50)
	cell.p99 = pctDur(lats, 0.99)
	return cell, nil
}

// pctDur returns the p-th percentile of sorted durations.
func pctDur(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// loadServer builds an httptest server over the Smoke probes with the
// given batching/shedding configuration.
func loadServer(p *lemp.Matrix, window time.Duration, mode string, shedInflight int) (*httptest.Server, error) {
	srv, err := server.New(p.Clone(), server.Config{
		Shards:        2,
		Options:       lemp.Options{Parallelism: 1},
		BatchWindow:   window,
		BatchMax:      256,
		BatchMode:     mode,
		ShedQueueRows: -1,
		ShedInflight:  shedInflight,
	})
	if err != nil {
		return nil, err
	}
	return httptest.NewServer(srv.Handler()), nil
}

// servingLoad runs the closed-loop latency-vs-load comparison and the
// overload/shedding phase.
func (r *Runner) servingLoad() error {
	r.header("Serving: latency vs load across batch modes (closed loop, Smoke dataset)")
	q, p := data.Smoke.Generate()
	dur := 250 * time.Millisecond
	concurrencies := []int{1, 4, 16}
	if r.cfg.Quick {
		dur = 80 * time.Millisecond
		concurrencies = []int{1, 8}
	}

	fmt.Fprintf(r.cfg.Out, "%-12s %8s %8s %10s %10s\n", "Mode", "Clients", "QPS", "p50", "p99")
	for _, m := range loadModes {
		ts, err := loadServer(p, m.window, m.mode, -1)
		if err != nil {
			return fmt.Errorf("load %s: %w", m.name, err)
		}
		for _, c := range concurrencies {
			cell, err := runLoadCell(ts, q, c, dur)
			if err != nil {
				ts.Close()
				return fmt.Errorf("load %s@%d: %w", m.name, c, err)
			}
			fmt.Fprintf(r.cfg.Out, "%-12s %8d %8.0f %10s %10s\n",
				m.name, c, cell.qps, fmtDur(cell.p50), fmtDur(cell.p99))
		}
		ts.Close()
	}

	// Overload: a tight in-flight bound with many more closed-loop clients.
	// The server must shed the excess with 429 while accepted requests keep
	// a bounded tail — graceful degradation, not queue collapse.
	const shedLimit, overloadClients = 4, 24
	ts, err := loadServer(p, 2*time.Millisecond, "continuous", shedLimit)
	if err != nil {
		return fmt.Errorf("load overload: %w", err)
	}
	defer ts.Close()
	cell, err := runLoadCell(ts, q, overloadClients, dur)
	if err != nil {
		return fmt.Errorf("load overload: %w", err)
	}
	total := cell.ok + cell.shed
	shedPct := 0.0
	if total > 0 {
		shedPct = 100 * float64(cell.shed) / float64(total)
	}
	fmt.Fprintf(r.cfg.Out,
		"\noverload: %d clients against in-flight limit %d: %d accepted (%.0f QPS, p99 %s), %d shed with 429 (%.1f%%)\n",
		overloadClients, shedLimit, cell.ok, cell.qps, fmtDur(cell.p99), cell.shed, shedPct)

	// Cross-check the client-side 429 count against the server's own
	// shed counter via the public /stats surface.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st struct {
		Shed struct {
			ShedTotal uint64 `json:"shed_total"`
		} `json:"shed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	if st.Shed.ShedTotal != uint64(cell.shed) {
		return fmt.Errorf("load overload: server counted %d shed requests, clients saw %d",
			st.Shed.ShedTotal, cell.shed)
	}
	fmt.Fprintln(r.cfg.Out)
	return nil
}
