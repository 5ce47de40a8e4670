package bulk

import (
	"context"
	"testing"

	"lemp/internal/core"
)

// TestRunPanelSteadyStateAllocs: once a worker's Above-θ collector has held
// its largest panel, running and encoding a panel allocates a fixed number
// of times whatever the panel's entry count — Job.Run's own per-call state
// and the encoded bytes, none per entry — and as often as a panel with no
// entry at all.
func TestRunPanelSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts: see raceEnabled")
	}
	ix, q := bulkFixture(t, 64, 2000, 10, 31)
	src := Matrix{M: q}
	ctx := context.Background()
	allocs := func(theta float64) (float64, int) {
		rj, err := ix.NewJob(core.Problem{Theta: theta}, core.RunOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		above := newAboveRows()
		var ws core.Stats
		run := func() {
			if _, err := runPanel(ctx, rj, src, ModeAbove, 0, q.N(), &ws, above); err != nil {
				t.Fatal(err)
			}
		}
		for range 3 { // the tuning pass and the collector's growth
			run()
		}
		entries := len(above.entries)
		return testing.AllocsPerRun(20, run), entries
	}
	many, entries := allocs(0.5)
	none, zero := allocs(1e9)
	if entries < 20*q.N() || zero != 0 {
		t.Fatalf("fixture: %d entries at the low θ, %d at the high one", entries, zero)
	}
	t.Logf("runPanel allocations: %.0f with %d entries, %.0f with none", many, entries, none)
	if many != none {
		t.Errorf("a panel of %d entries allocates %.0f times, an empty one %.0f: allocation grows with the entries", entries, many, none)
	}
	if many > 16 {
		t.Errorf("runPanel allocates %.0f times per panel, budget 16", many)
	}
}
