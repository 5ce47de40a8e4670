package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDot is the straight-line reference the blocked kernels are
// property-tested against: sequential accumulation, no unrolling.
func naiveDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// genVec draws a Gaussian vector; about one call in eight returns the zero
// vector so the degenerate case is always in the property mix.
func genVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	if rng.Intn(8) == 0 {
		return v
	}
	for i := range v {
		v[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
	}
	return v
}

// kernelLengths are the dimensions the kernel tests sweep: zero, the odd
// lengths straddling the unroll width (4), and the row-group widths (4, 8)
// with their neighbors, plus larger sizes that exercise several full
// iterations with ragged tails.
var kernelLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 50, 64, 65}

// TestDotBatchBitIdenticalToDot is the exactness contract of the blocked
// verifier: for every row, DotBatch must produce the same bits as the seed
// Dot implementation — the differential mutation harness asserts
// byte-identical retrieval results, so any last-ulp drift here would surface
// as a correctness failure there.
func TestDotBatchBitIdenticalToDot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, r := range kernelLengths {
		for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 33} {
			q := genVec(rng, r)
			panel := make([]float64, rows*r)
			for i := range panel {
				panel[i] = rng.NormFloat64()
			}
			out := make([]float64, rows)
			DotBatch(q, panel, out)
			for i := 0; i < rows; i++ {
				want := Dot(q, panel[i*r:(i+1)*r])
				if math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("r=%d rows=%d row %d: DotBatch %x, Dot %x",
						r, rows, i, math.Float64bits(out[i]), math.Float64bits(want))
				}
			}
		}
	}
}

func TestDot4Dot8BitIdenticalToDot(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, r := range kernelLengths {
		q := genVec(rng, r)
		rows := make([][]float64, 8)
		for i := range rows {
			rows[i] = genVec(rng, r)
		}
		var out4 [4]float64
		Dot4(q, rows[0], rows[1], rows[2], rows[3], &out4)
		var out8 [8]float64
		Dot8(q, rows[0], rows[1], rows[2], rows[3], rows[4], rows[5], rows[6], rows[7], &out8)
		for i := 0; i < 8; i++ {
			want := math.Float64bits(Dot(q, rows[i]))
			if i < 4 && math.Float64bits(out4[i]) != want {
				t.Fatalf("r=%d Dot4 row %d: %x, Dot %x", r, i, math.Float64bits(out4[i]), want)
			}
			if math.Float64bits(out8[i]) != want {
				t.Fatalf("r=%d Dot8 row %d: %x, Dot %x", r, i, math.Float64bits(out8[i]), want)
			}
		}
	}
}

// TestKernelsMatchNaiveReference checks tolerance-bounded agreement with the
// sequential reference across the length sweep (accumulation order differs,
// so equality is approximate by design).
func TestKernelsMatchNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, r := range kernelLengths {
		for trial := 0; trial < 20; trial++ {
			q := genVec(rng, r)
			rows := 1 + rng.Intn(12)
			panel := make([]float64, rows*r)
			for i := range panel {
				panel[i] = rng.NormFloat64()
			}
			out := make([]float64, rows)
			DotBatch(q, panel, out)
			for i := 0; i < rows; i++ {
				want := naiveDot(q, panel[i*r:(i+1)*r])
				if !almostEqual(out[i], want, 1e-9) {
					t.Fatalf("r=%d row %d: DotBatch %g, naive %g", r, i, out[i], want)
				}
			}
		}
	}
}

// TestKernelQuickProperties drives testing/quick over random row sets:
// blocked results agree with the reference within tolerance, zero vectors
// yield exact zeros, and non-finite inputs produce the same non-finite
// classification as the reference (NaN where the reference is NaN).
func TestKernelQuickProperties(t *testing.T) {
	f := func(q []float64, rowSeed int64, nRows uint8) bool {
		r := len(q)
		for _, x := range q {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // extreme magnitudes overflow any order; skip
			}
		}
		rows := int(nRows%13) + 1
		rng := rand.New(rand.NewSource(rowSeed))
		panel := make([]float64, rows*r)
		for i := range panel {
			panel[i] = rng.NormFloat64()
		}
		out := make([]float64, rows)
		DotBatch(q, panel, out)
		for i := 0; i < rows; i++ {
			want := naiveDot(q, panel[i*r:(i+1)*r])
			if !almostEqual(out[i], want, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKernelsZeroVector(t *testing.T) {
	q := make([]float64, 10)
	panel := make([]float64, 5*10)
	for i := range panel {
		panel[i] = float64(i) - 20
	}
	out := make([]float64, 5)
	DotBatch(q, panel, out)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("zero query row %d: %g", i, v)
		}
	}
}

// TestKernelsNonFiniteBoundary: NaN and Inf coordinates must flow through
// identically to the seed Dot (no kernel may silently skip or mask them).
// Retrieval rejects non-finite inputs at its boundary; the kernels still
// must not turn garbage into plausible numbers.
func TestKernelsNonFiniteBoundary(t *testing.T) {
	q := []float64{1, math.NaN(), 2, 3, 4}
	row := []float64{5, 6, 7, 8, 9}
	var out [4]float64
	Dot4(q, row, row, row, row, &out)
	for i, v := range out {
		if !math.IsNaN(v) {
			t.Fatalf("Dot4 row %d with NaN query: %g", i, v)
		}
	}
	qInf := []float64{1, math.Inf(1), 2, 3, 4}
	out2 := make([]float64, 2)
	DotBatch(qInf, append(append([]float64{}, row...), row...), out2)
	for i, v := range out2 {
		want := Dot(qInf, row)
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("DotBatch row %d with Inf query: %g, Dot %g", i, v, want)
		}
	}
}

func TestKernelsPanicOnShapeMismatch(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"DotBatch", func() { DotBatch(make([]float64, 3), make([]float64, 7), make([]float64, 2)) }},
		{"Dot4", func() {
			var out [4]float64
			Dot4(make([]float64, 3), make([]float64, 3), make([]float64, 2), make([]float64, 3), make([]float64, 3), &out)
		}},
		{"Dot8", func() {
			var out [8]float64
			p := make([]float64, 3)
			Dot8(make([]float64, 3), p, p, p, p, p, p, p, make([]float64, 4), &out)
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic for mismatched shapes", c.name)
				}
			}()
			c.fn()
		}()
	}
}
