package bench

import (
	"fmt"
	"time"
)

func (r *Runner) header(title string) {
	fmt.Fprintf(r.cfg.Out, "\n== %s ==\n", title)
}

// printTable prints measurements grouped by dataset and problem, one row
// per method, with the paper's columns: total time and candidates/query,
// plus the recall of an approximate method.
func (r *Runner) printTable(ms []Measurement) {
	sortMeasurements(ms)
	r.record(ms)
	lastGroup := ""
	for _, m := range ms {
		group := m.Dataset + " / " + m.Problem
		if group != lastGroup {
			fmt.Fprintf(r.cfg.Out, "\n%s\n", group)
			lastGroup = group
		}
		fmt.Fprintf(r.cfg.Out, "  %-16s %12s  (|C|/q %10.1f, results %d",
			m.Method, fmtDur(m.Total), m.CandPerQ, m.Results)
		if m.Recall != nil {
			fmt.Fprintf(r.cfg.Out, ", recall %.3f", *m.Recall)
		}
		fmt.Fprintln(r.cfg.Out, ")")
	}
	fmt.Fprintln(r.cfg.Out)
}

// printComparison prints a figure-style table and annotates the named
// method's speedup over the best other method and over Naive, the way
// Figs. 5 and 6 mark "6.4x" over the runner-up.
func (r *Runner) printComparison(ms []Measurement, highlight string) {
	sortMeasurements(ms)
	r.record(ms)
	groups := map[string][]Measurement{}
	var order []string
	for _, m := range ms {
		g := m.Dataset + " / " + m.Problem
		if _, ok := groups[g]; !ok {
			order = append(order, g)
		}
		groups[g] = append(groups[g], m)
	}
	for _, g := range order {
		fmt.Fprintf(r.cfg.Out, "\n%s\n", g)
		var hl, bestOther, naive time.Duration
		for _, m := range groups[g] {
			fmt.Fprintf(r.cfg.Out, "  %-16s %12s  (|C|/q %10.1f)\n", m.Method, fmtDur(m.Total), m.CandPerQ)
			switch {
			case m.Method == highlight:
				hl = m.Total
			case m.Method == "Naive":
				naive = m.Total
				if bestOther == 0 || m.Total < bestOther {
					bestOther = m.Total
				}
			default:
				if bestOther == 0 || m.Total < bestOther {
					bestOther = m.Total
				}
			}
		}
		if hl > 0 && bestOther > 0 {
			fmt.Fprintf(r.cfg.Out, "  -> %s speedup: %.1fx over best other", highlight, float64(bestOther)/float64(hl))
			if naive > 0 {
				fmt.Fprintf(r.cfg.Out, ", %.0fx over Naive", float64(naive)/float64(hl))
			}
			fmt.Fprintln(r.cfg.Out)
		}
	}
	fmt.Fprintln(r.cfg.Out)
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
