package quant

import (
	"math"
	"math/rand"
	"testing"
)

// quantizeRowReference is quantizeRow as it was written before the loop lost
// its math.RoundToEven call and its separate finiteness pass, kept verbatim
// as the oracle of TestQuantizeRowMatchesReference.
func quantizeRowReference(codes []int8, row []float64, scale float64) (resid, norm float64) {
	clear(codes)
	for _, x := range row {
		if x-x != 0 || (scale == 0 && x != 0) {
			return math.Inf(1), 0
		}
	}
	if scale == 0 {
		return 0, 0
	}
	// Quantize by reciprocal multiply: a division per coordinate costs
	// several times a multiply and this loop runs per query on the serving
	// path. The code choice itself carries no soundness weight — the
	// residual bound below is computed from the codes actually stored, so
	// any rounding of the quotient only moves error between the code and
	// the (exactly accounted) residual. The reciprocal overflows only for
	// subnormal scales; fall back to division there.
	inv := 1 / scale
	div := math.IsInf(inv, 0)
	var sumd, sumq float64
	for j, x := range row {
		var c float64
		if div {
			c = math.RoundToEven(x / scale)
		} else {
			c = math.RoundToEven(x * inv)
		}
		// The quotient can round a full-scale coordinate past ±127
		// (|x| == maxabs gives exactly ±127 only when it is exact); clamp
		// so the code always fits the int8 contract.
		c = min(max(c, -127), 127)
		codes[j] = int8(c)
		deq := scale * c
		d := x - deq
		sumd += d * d
		sumq += deq * deq
	}
	slack := sumSlack(len(row))
	norm = inflate(math.Sqrt(sumq), slack)
	// ‖e_p‖ in exact arithmetic differs from the computed ‖d‖ by at most
	// the rounding of scale·c and of the subtraction, each ≤ 2⁻⁵³ relative
	// to the dequantized coordinate — covered by the 4·2⁻⁵²·‖p̂‖ term.
	resid = inflate(math.Sqrt(sumd)+4*(2*ulp)*norm, slack)
	if math.IsNaN(resid) || math.IsNaN(norm) || math.IsInf(norm, 0) {
		clear(codes)
		return math.Inf(1), 0
	}
	return resid, norm
}

// TestQuantizeRowMatchesReference holds quantizeRow to its reference bit
// for bit: the same codes and the same resid and norm bits on exact .5
// ties, coordinates at ±maxabs, NaN and ±Inf, zero rows, subnormal scales
// (the division path), magnitudes from 1e-300 to 1e300 and every r from 1
// to 300, each at the row's own step maxabs/127 and at nearby steps.
func TestQuantizeRowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	rows := 0
	check := func(kind string, row []float64, scale float64) {
		t.Helper()
		rows++
		got, want := make([]int8, len(row)), make([]int8, len(row))
		for i := range got { // stale codes must be overwritten
			got[i], want[i] = 99, -99
		}
		gr, gn := quantizeRow(got, row, scale)
		wr, wn := quantizeRowReference(want, row, scale)
		if math.Float64bits(gr) != math.Float64bits(wr) || math.Float64bits(gn) != math.Float64bits(wn) {
			t.Fatalf("%s r=%d scale=%g: (resid, norm) = (%v, %v), reference (%v, %v)\nrow %v", kind, len(row), scale, gr, gn, wr, wn, row)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("%s r=%d scale=%g: code %d = %d, reference %d\nrow %v", kind, len(row), scale, j, got[j], want[j], row)
			}
		}
	}
	// Each row at its own step and at steps just around it and away from it.
	checkSteps := func(kind string, row []float64) {
		t.Helper()
		s := maxAbs(row) / 127
		check(kind, row, s)
		check(kind, row, math.Nextafter(s, 0))
		check(kind, row, math.Nextafter(s, math.Inf(1)))
		check(kind, row, 2*s)
		check(kind, row, s/2)
	}
	mags := []float64{1e-300, 1e-200, 1e-100, 1e-20, 1e-3, 1, 1e3, 1e20, 1e100, 1e154, 1e200, 1e300}
	for r := 1; r <= 300; r++ {
		row := make([]float64, r)
		// Gaussian rows at every magnitude.
		for _, m := range mags {
			for j := range row {
				row[j] = m * rng.NormFloat64()
			}
			checkSteps("gaussian", row)
		}
		// Exact .5 ties: a power-of-two step makes every quotient exact.
		step := math.Ldexp(1, rng.Intn(200)-100)
		for j := range row {
			row[j] = (float64(rng.Intn(254)-127) + 0.5) * step
		}
		check("ties", row, step)
		checkSteps("ties", row)
		// Coordinates at ±maxabs, the rest random: the full-scale quotient
		// may round past ±127 at a step one ulp below maxabs/127.
		m := mags[rng.Intn(len(mags))] * (1 + rng.Float64())
		for j := range row {
			switch rng.Intn(3) {
			case 0:
				row[j] = m
			case 1:
				row[j] = -m
			default:
				row[j] = m * (2*rng.Float64() - 1)
			}
		}
		checkSteps("maxabs", row)
		// Zero rows, and a signed zero.
		clear(row)
		check("zero", row, 0)
		check("zero", row, 1)
		row[rng.Intn(r)] = math.Copysign(0, -1)
		check("zero", row, 0)
		checkSteps("zero", row)
		// A nonzero coordinate under a zero step.
		row[rng.Intn(r)] = 1e-300
		check("zero step", row, 0)
		// Subnormal steps: 1/scale overflows and the division path runs.
		for j := range row {
			row[j] = 5e-324 * float64(rng.Intn(1<<20)-1<<19)
		}
		checkSteps("subnormal", row)
		check("subnormal", row, math.SmallestNonzeroFloat64)
		// NaN and ±Inf anywhere in the row, under every step.
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			row[rng.Intn(r)] = bad
			checkSteps("non-finite", row)
			check("non-finite", row, 0)
			check("non-finite", row, 1)
		}
	}
	// Adversarial rows: every coordinate drawn from a mix of the cases above.
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022}
	for i := 0; i < 5000; i++ {
		row := make([]float64, 1+rng.Intn(64))
		for j := range row {
			switch rng.Intn(8) {
			case 0:
				if rng.Intn(20) == 0 {
					row[j] = specials[rng.Intn(len(specials))]
				}
			case 1:
				row[j] = (float64(rng.Intn(254)-127) + 0.5) * 0x1p-7
			default:
				row[j] = mags[rng.Intn(len(mags))] * rng.NormFloat64()
			}
		}
		checkSteps("mixed", row)
	}
	t.Logf("%d rows checked", rows)
}

// BenchmarkQuantizeRow times quantizeRow against its reference on 1 000
// Gaussian rows of dimension 50 at the panel's step, as QuantizeRows runs
// it; ns/coord is the cost per coordinate.
func BenchmarkQuantizeRow(b *testing.B) {
	const r, n = 50, 1000
	rng := rand.New(rand.NewSource(1))
	rows := make([]float64, r*n)
	for i := range rows {
		rows[i] = rng.NormFloat64()
	}
	scale := maxAbs(rows) / 127
	codes := make([]int8, r)
	for _, impl := range []struct {
		name string
		fn   func([]int8, []float64, float64) (float64, float64)
	}{{"current", quantizeRow}, {"reference", quantizeRowReference}} {
		b.Run(impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					impl.fn(codes, rows[j*r:(j+1)*r], scale)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*r*n), "ns/coord")
		})
	}
}
