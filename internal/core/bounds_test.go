package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lemp/internal/vecmath"
)

// The soundness property of §4.2's coordinate bounds: whenever two unit
// vectors satisfy q̄ᵀp̄ ≥ θ_b, every coordinate of p̄ must lie inside the
// feasible region computed from the corresponding coordinate of q̄.
// Violations would make COORD/INCR drop true results.
func TestFeasibleRegionSound(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20000; trial++ {
		r := 2 + rng.Intn(6)
		q := randUnit(rng, r)
		p := randUnit(rng, r)
		cos := dot(q, p)
		// Use a threshold the pair actually meets.
		thetaB := cos - rng.Float64()*0.1
		if thetaB > 1 {
			thetaB = 1
		}
		for f := 0; f < r; f++ {
			lo, hi := feasibleRegion(q[f], thetaB, 0)
			if p[f] < lo-1e-9 || p[f] > hi+1e-9 {
				t.Fatalf("trial %d: q̄_f=%g p̄_f=%g cos=%g θ_b=%g but region [%g,%g]",
					trial, q[f], p[f], cos, thetaB, lo, hi)
			}
		}
	}
}

// The regions must match the paper's worked example (Fig. 4d): θ_b = 0.9,
// q̄ = (0.70, 0.3, 0.4, 0.51), focus coordinates 1 and 4 give
// [0.32, 0.94] and [0.09, 0.83].
func TestFeasibleRegionPaperExample(t *testing.T) {
	lo, hi := feasibleRegion(0.70, 0.9, 0)
	if math.Abs(lo-0.3187) > 0.001 || math.Abs(hi-0.9413) > 0.001 {
		t.Errorf("coordinate 1: [%g, %g], paper says ≈[0.32, 0.94]", lo, hi)
	}
	// Exact arithmetic gives [0.0841, 0.8339]; the paper prints the
	// rounded [0.09, 0.83].
	lo, hi = feasibleRegion(0.51, 0.9, 0)
	if math.Abs(lo-0.0841) > 0.001 || math.Abs(hi-0.8339) > 0.001 {
		t.Errorf("coordinate 4: [%g, %g], want ≈[0.084, 0.834] (paper rounds to [0.09, 0.83])", lo, hi)
	}
}

func TestFeasibleRegionEdgeCases(t *testing.T) {
	// θ_b ≤ 0: no pruning possible, full range.
	if lo, hi := feasibleRegion(0.5, 0, 0); lo != -1 || hi != 1 {
		t.Errorf("θ_b=0: [%g, %g]", lo, hi)
	}
	if lo, hi := feasibleRegion(-0.7, -3, 0); lo != -1 || hi != 1 {
		t.Errorf("θ_b=-3: [%g, %g]", lo, hi)
	}
	// θ_b > 1: empty region (callers prune the bucket first anyway).
	if lo, hi := feasibleRegion(0.5, 1.5, 0); lo <= hi {
		t.Errorf("θ_b=1.5: non-empty region [%g, %g]", lo, hi)
	}
	// θ_b = 1: only the exact direction qualifies; the region must still
	// contain q̄_f itself.
	for _, qf := range []float64{-1, -0.3, 0, 0.4, 1} {
		lo, hi := feasibleRegion(qf, 1, 0)
		if qf < lo-1e-9 || qf > hi+1e-9 {
			t.Errorf("θ_b=1, q̄_f=%g not in [%g, %g]", qf, lo, hi)
		}
	}
	// Symmetry: region(-q̄_f) = -region(q̄_f) mirrored.
	for _, qf := range []float64{0.1, 0.5, 0.9} {
		lo1, hi1 := feasibleRegion(qf, 0.7, 0)
		lo2, hi2 := feasibleRegion(-qf, 0.7, 0)
		if math.Abs(lo1+hi2) > 1e-12 || math.Abs(hi1+lo2) > 1e-12 {
			t.Errorf("asymmetry at q̄_f=%g: [%g,%g] vs [%g,%g]", qf, lo1, hi1, lo2, hi2)
		}
	}
}

// TestFeasibleRegionNearAxis holds the region to what the scan needs of it,
// in floating point: for a query near a coordinate axis (where the
// endpoints are steepest), at θ equal to a pair's value fl(qᵀp) and
// l_b = ‖p‖, every unit coordinate the lists store for p lies in the region
// of the query's direction under the index's slack. The first pair is one a
// coordinate scan once dropped.
func TestFeasibleRegionNearAxis(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	q, p := []float64{0.02675111401481811, -2.1179823062589502}, []float64{0.8404960471958267, -0.7953923927641737}
	for trial := 0; trial < 200000; trial++ {
		r := len(q)
		if thetaB := vecmath.Dot(q, p) / (vecmath.Norm(q) * vecmath.Norm(p)); thetaB > 0 {
			qdir, pdir := make([]float64, r), make([]float64, r)
			vecmath.Normalize(qdir, q)
			vecmath.Normalize(pdir, p)
			for f := range q {
				if lo, hi := feasibleRegion(qdir[f], thetaB, boundSlack(r)); pdir[f] < lo || pdir[f] > hi {
					t.Fatalf("q=%v p=%v: p̄_%d = %v outside [%v, %v] at θ_b = %v", q, p, f, pdir[f], lo, hi, thetaB)
				}
			}
		}
		r = 1 + rng.Intn(8)
		q, p = randUnit(rng, r), randUnit(rng, r)
		for f, c := 0, math.Exp(rng.NormFloat64()); f < r; f++ {
			if q[f] *= c; f != 0 {
				q[f] *= math.Pow(10, -1-6*rng.Float64()) // near axis 0
			}
		}
	}
}

// quick-check soundness over the full parameter box.
func TestFeasibleRegionSoundQuick(t *testing.T) {
	f := func(qfRaw, pfRaw, tRaw uint16) bool {
		qf := float64(qfRaw)/float64(math.MaxUint16)*2 - 1
		pf := float64(pfRaw)/float64(math.MaxUint16)*2 - 1
		thetaB := float64(tRaw) / float64(math.MaxUint16) // in [0,1]
		// The pair (q̄_f, p̄_f) is consistent with q̄ᵀp̄ ≥ θ_b iff
		// q̄_f·p̄_f + √(1-q̄_f²)√(1-p̄_f²) ≥ θ_b (the other coordinates
		// can contribute at most the second term).
		best := qf*pf + math.Sqrt((1-qf*qf)*(1-pf*pf))
		if best < thetaB {
			return true // pair infeasible; no containment obligation
		}
		lo, hi := feasibleRegion(qf, thetaB, 0)
		return pf >= lo-1e-9 && pf <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func randUnit(rng *rand.Rand, r int) []float64 {
	v := make([]float64, r)
	var n2 float64
	for {
		n2 = 0
		for i := range v {
			v[i] = rng.NormFloat64()
			n2 += v[i] * v[i]
		}
		if n2 > 0 {
			break
		}
	}
	inv := 1 / math.Sqrt(n2)
	for i := range v {
		v[i] *= inv
	}
	return v
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
