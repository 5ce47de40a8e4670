package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// Verdicts of -compare for one (workload, end-to-end metric) pair.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// worseBy is how much worse b reads than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// separated reports whether every round of one side reads worse than every
// round of the other: the case in which a difference counts although the
// rounds are noisier than the bound.
func separated(better string, worse, than []float64) bool {
	if len(worse) == 0 || len(than) == 0 {
		return false
	}
	if better == "higher" {
		return slices.Max(worse) < slices.Min(than)
	}
	return slices.Min(worse) > slices.Max(than)
}

// verdict holds b against a under the metric's bound. A difference within
// the bound is ok. When the rounds of either file spread wider than the
// bound the pair is unresolved, not unchanged, unless the two files' rounds
// do not overlap at all, in which case the medians decide.
func verdict(def metricDef, a, b metricValue) (string, float64) {
	worse := worseBy(def.Better, a.Value, b.Value)
	if max(spread(a.Rounds), spread(b.Rounds)) > def.Bound &&
		!separated(def.Better, b.Rounds, a.Rounds) && !separated(def.Better, a.Rounds, b.Rounds) {
		return verdictUnresolved, worse
	}
	if worse > def.Bound {
		return verdictRegression, worse
	}
	return verdictOK, worse
}

func readResultFile(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &f, nil
}

// runCompare prints one line per (workload, end-to-end metric) and returns
// the process exit code: 1 when any pair breaches its bound or a file is
// unusable, else 0.
func runCompare(w io.Writer, specPath, aPath, bPath string) int {
	spec, err := loadSpec(specPath)
	var a, b *resultFile
	if err == nil {
		a, err = readResultFile(aPath)
	}
	if err == nil {
		b, err = readResultFile(bPath)
	}
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 1
	}
	for _, side := range []struct {
		name string
		meta runMeta
	}{{"A", a.Meta}, {"B", b.Meta}} {
		m := side.meta
		fmt.Fprintf(w, "%s: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %.0f s, load average %.2f\n",
			side.name, m.GitCommit, m.GoVersion, m.NumCPU, m.GOMAXPROCS, m.Seed, m.Seconds, m.LoadAvg)
	}
	if a.Meta.Seconds != b.Meta.Seconds || a.Meta.Scale != b.Meta.Scale {
		fmt.Fprintln(w, "compare: the two files were measured with different -seconds or -scale; they are not comparable")
		return 1
	}
	code := 0
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-14s missing from one of the files\n", wl.Name)
			code = 1
			continue
		}
		for _, def := range spec.EndToEnd {
			ma, okA := ra.EndToEnd[def.Name]
			mb, okB := rb.EndToEnd[def.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-14s %-18s missing from one of the files\n", wl.Name, def.Name)
				code = 1
				continue
			}
			v, worse := verdict(def, ma, mb)
			if v == verdictRegression {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-18s A %12.4f  B %12.4f %-5s %+7.2f%% worse (bound %.0f%%, spread A %.1f%% B %.1f%%)  %s\n",
				wl.Name, def.Name, ma.Value, mb.Value, def.Unit, 100*worse, 100*def.Bound, 100*spread(ma.Rounds), 100*spread(mb.Rounds), v)
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Fprintf(w, "%-14s failed operations: A %d of %d, B %d of %d\n", wl.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			if rb.Failed > ra.Failed {
				code = 1
			}
		}
	}
	return code
}
