package core

import (
	"sort"
	"testing"

	"lemp/internal/vecmath"
)

// The paper's worked example (Fig. 4): a bucket of six vectors, query
// q with ‖q‖ = 0.5 and q̄ = (0.70, 0.3, 0.4, 0.51), θ = 0.9, focus set
// F = {coordinates 1 and 4}. The paper derives:
//
//   - feasible regions [0.32, 0.94] on coordinate 1 and [0.09, 0.83] on
//     coordinate 4 (Fig. 4d),
//   - COORD candidates C_b = {1, 4, 5} (Fig. 4e),
//   - INCR candidates C_b = {1} (Fig. 4f).
//
// Local ids here are zero-based, so the expected sets become {0, 3, 4}
// and {0}.

func fig4Bucket(t *testing.T) *bucket {
	t.Helper()
	lens := []float64{2.0, 1.9, 1.9, 1.8, 1.8, 1.8}
	dirs := [][]float64{
		{0.58, 0.50, 0.40, 0.50},
		{0.98, 0, 0, 0.20},
		{0.53, 0, 0, 0.85},
		{0.35, 0.93, 0, 0.10},
		{0.58, 0.50, 0.40, 0.50},
		{0.30, -0.40, 0.81, -0.30},
	}
	// The bucket is constructed directly rather than through bucketize:
	// the table's two-decimal directions are not exactly unit length, so
	// re-deriving lengths would perturb the paper's tie order. Each row is
	// the normalized direction times the table's length, which changes each
	// coordinate by ≤ 0.2%, inside every tolerance used below.
	b := &bucket{
		r:    4,
		ids:  []int32{0, 1, 2, 3, 4, 5},
		lens: lens,
		rows: make([]float64, 6*4),
		lb:   2.0,
	}
	for i, d := range dirs {
		if vecmath.Normalize(b.row(i), d) == 0 {
			t.Fatalf("vector %d is zero", i)
		}
		vecmath.Scale(b.row(i), b.row(i), lens[i])
	}
	return b
}

var fig4Query = struct {
	qlen  float64
	qdir  []float64
	theta float64
}{0.5, []float64{0.70, 0.3, 0.4, 0.51}, 0.9}

func sortedCands(s *scratch) []int {
	out := make([]int, len(s.cand))
	for i, lid := range s.lids() {
		out[i] = int(lid)
	}
	sort.Ints(out)
	return out
}

func TestFig4FocusSelection(t *testing.T) {
	s := newScratch(6, 4)
	s.selectFocus(fig4Query.qdir, 2)
	if len(s.focus) != 2 || s.focus[0] != 0 || s.focus[1] != 3 {
		t.Fatalf("focus = %v, paper uses coordinates {1, 4} (zero-based {0, 3})", s.focus)
	}
}

func TestFig4LocalThreshold(t *testing.T) {
	b := fig4Bucket(t)
	thetaB := fig4Query.theta / (fig4Query.qlen * b.lb)
	if thetaB != 0.9 {
		t.Fatalf("θ_b = %g, paper computes 0.9/(0.5·2) = 0.9", thetaB)
	}
}

func TestFig4CoordCandidates(t *testing.T) {
	b := fig4Bucket(t)
	s := newScratch(6, 4)
	runCoord(b, fig4Query.qdir, 0.9, 0, 2, s)
	got := sortedCands(s)
	want := []int{0, 3, 4} // the paper's {1, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("COORD candidates %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("COORD candidates %v, want %v", got, want)
		}
	}
}

func TestFig4IncrCandidates(t *testing.T) {
	b := fig4Bucket(t)
	s := newScratch(6, 4)
	runIncr(b, fig4Query.qdir, fig4Query.qlen, fig4Query.theta, 0.9, 0, 2, s)
	got := sortedCands(s)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("INCR candidates %v, want [0] (the paper's {1})", got)
	}
}

// The verification step on COORD's candidates must keep exactly the one
// entry that passes the global threshold: vector 1 with qᵀp = 0.97.
func TestFig4Verification(t *testing.T) {
	b := fig4Bucket(t)
	s := newScratch(6, 4)
	runCoord(b, fig4Query.qdir, 0.9, 0, 2, s)
	var passed []int
	for _, lid := range s.lids() {
		v := vecmath.Dot(fig4Query.qdir, b.row(int(lid))) * fig4Query.qlen
		if v >= fig4Query.theta {
			passed = append(passed, int(lid))
			if v < 0.96 || v > 0.98 { // paper: qᵀp = 0.97
				t.Errorf("vector %d passes with %g, paper says 0.97", lid, v)
			}
		}
	}
	if len(passed) != 1 || passed[0] != 0 {
		t.Fatalf("verification kept %v, want [0]", passed)
	}
}

// Cross-check the paper's Fig. 4b: cosines and products for all six
// vectors. The printed figure is internally rounded (e.g. recomputing
// vector 4's cosine from the displayed p̄ gives 0.575 against the printed
// 0.56), so the tolerance is the figure's print granularity, not ours.
func TestFig4ProductsTable(t *testing.T) {
	b := fig4Bucket(t)
	wantCos := []float64{0.97, 0.79, 0.80, 0.56, 0.97, 0.26}
	wantProd := []float64{0.97, 0.75, 0.76, 0.52, 0.87, 0.23}
	for lid := 0; lid < 6; lid++ {
		prod := vecmath.Dot(fig4Query.qdir, b.row(lid)) * fig4Query.qlen
		cos := prod / (fig4Query.qlen * b.lens[lid])
		if diff := cos - wantCos[lid]; diff > 0.03 || diff < -0.03 {
			t.Errorf("vector %d: cosine %.3f, paper %.2f", lid+1, cos, wantCos[lid])
		}
		if diff := prod - wantProd[lid]; diff > 0.03 || diff < -0.03 {
			t.Errorf("vector %d: product %.3f, paper %.2f", lid+1, prod, wantProd[lid])
		}
	}
}
