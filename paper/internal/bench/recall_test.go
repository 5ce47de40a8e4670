package bench

import (
	"math"
	"testing"

	"lemp/internal/retrieval"
)

func TestRecallMetric(t *testing.T) {
	exact := retrieval.TopK{
		{{Probe: 1}, {Probe: 2}},
		{{Probe: 3}, {Probe: 4}},
	}
	approx := retrieval.TopK{
		{{Probe: 1}, {Probe: 9}},
		{{Probe: 3}, {Probe: 4}},
	}
	if rec := recall(exact, approx); math.Abs(rec-0.75) > 1e-12 {
		t.Errorf("recall %g, want 0.75", rec)
	}
	if rec := recall(nil, nil); rec != 1 {
		t.Errorf("empty recall %g", rec)
	}
	if rec := recall(retrieval.TopK{{}}, retrieval.TopK{{}}); rec != 1 {
		t.Errorf("all-empty-rows recall %g", rec)
	}
}
