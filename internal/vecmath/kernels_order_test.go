package vecmath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// refDot is the canonical accumulation order of kernels.go as a plain loop:
// what every kernel, assembly or portable, must reproduce bit for bit.
func refDot(a, b []float64) float64 {
	var lane [4]float64
	n4 := len(a) &^ 3
	for i := 0; i < n4; i++ {
		lane[i%4] += float64(a[i] * b[i])
	}
	s := (lane[0] + lane[2]) + (lane[1] + lane[3])
	for i := n4; i < len(a); i++ {
		s += float64(a[i] * b[i])
	}
	return s
}

// sameFloat compares bit patterns, except that any NaN equals any NaN: which
// operand's payload a NaN result inherits is the hardware's business.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// kernelFills are the value classes the order test draws vectors from.
var kernelFills = []struct {
	name string
	fill func(rng *rand.Rand, v []float64)
}{
	{"gaussian", func(rng *rand.Rand, v []float64) {
		for i := range v {
			v[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
		}
	}},
	// Sums that cancel to a few units in the last place of their largest
	// term: any other association of the same products gives other bits.
	{"cancelling", func(rng *rand.Rand, v []float64) {
		for i := range v {
			v[i] = math.Ldexp(1+rng.Float64(), 40*(rng.Intn(3)-1))
			if rng.Intn(2) == 0 {
				v[i] = -v[i]
			}
		}
	}},
	{"special", func(rng *rand.Rand, v []float64) {
		specials := []float64{
			math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
			math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1030,
			math.MaxFloat64, -math.MaxFloat64,
		}
		for i := range v {
			v[i] = rng.NormFloat64()
			if rng.Intn(4) == 0 {
				v[i] = specials[rng.Intn(len(specials))]
			}
		}
	}},
	{"denormal and signed zero", func(rng *rand.Rand, v []float64) {
		for i := range v {
			v[i] = math.Copysign(float64(rng.Intn(3))*0x1p-540, float64(rng.Intn(2))-0.5)
		}
	}},
}

// aligned64 returns a slice of n float64 whose element 0 sits off elements
// past a 64-byte boundary, so off = 0..7 walks a row start through every
// position of a cache line (and across the 32-byte vector width).
func aligned64(n, off int) []float64 {
	buf := make([]float64, n+16)
	al := 0
	for uintptr(unsafe.Pointer(&buf[al]))%64 != 0 {
		al++
	}
	return buf[al+off : al+off+n : al+off+n]
}

// TestKernelsFollowCanonicalOrder runs every exported kernel, through the
// dispatcher and directly on the portable implementation, against the
// plain-loop reference: r = 0..70 covers empty, shorter than one block,
// every tail length and many block counts; rows = 13 takes DotBatch through
// its 8-row, 4-row and single-row steps; the panel starts at every offset
// within a cache line.
func TestKernelsFollowCanonicalOrder(t *testing.T) {
	t.Logf("assembly kernels in use: %v", useAVX2)
	const rows = 13
	rng := rand.New(rand.NewSource(16))
	for _, fc := range kernelFills {
		for r := 0; r <= 70; r++ {
			for off := 0; off < 8; off++ {
				q := aligned64(r, (off+3)%8)
				panel := aligned64(rows*r, off)
				fc.fill(rng, q)
				fc.fill(rng, panel)
				row := func(i int) []float64 { return panel[i*r : (i+1)*r : (i+1)*r] }
				want := make([]float64, rows)
				for i := range want {
					want[i] = refDot(q, row(i))
				}
				check := func(kernel string, i int, got float64) {
					t.Helper()
					if !sameFloat(got, want[i]) {
						t.Fatalf("%s, r=%d, offset %d: %s row %d = %x (%g), canonical order gives %x (%g)",
							fc.name, r, off, kernel, i, math.Float64bits(got), got, math.Float64bits(want[i]), want[i])
					}
				}

				out := make([]float64, rows)
				for name, batch := range map[string]func(q, panel, out []float64){"DotBatch": DotBatch, "dotBatchGo": dotBatchGo} {
					for n := 0; n <= rows; n++ { // every split into 8-, 4- and 1-row steps
						clear(out)
						batch(q, panel[:n*r], out[:n])
						for i := 0; i < n; i++ {
							check(fmt.Sprintf("%s(%d rows)", name, n), i, out[i])
						}
					}
				}
				for i := 0; i < rows; i++ {
					check("Dot", i, Dot(q, row(i)))
					check("dotGo", i, dotGo(q, row(i)))
				}
				// Strided rows in a scrambled order, as COORD/INCR survivors arrive.
				pick := [8]int{12, 3, 7, 0, 9, 5, 11, 2}
				var o4 [4]float64
				var o8 [8]float64
				for name, d4 := range map[string]func(q, p0, p1, p2, p3 []float64, out *[4]float64){"Dot4": Dot4, "dot4Go": dot4Go} {
					d4(q, row(pick[0]), row(pick[1]), row(pick[2]), row(pick[3]), &o4)
					for j, v := range o4 {
						check(name, pick[j], v)
					}
				}
				for name, d8 := range map[string]func(q, p0, p1, p2, p3, p4, p5, p6, p7 []float64, out *[8]float64){"Dot8": Dot8, "dot8Go": dot8Go} {
					d8(q, row(pick[0]), row(pick[1]), row(pick[2]), row(pick[3]), row(pick[4]), row(pick[5]), row(pick[6]), row(pick[7]), &o8)
					for j, v := range o8 {
						check(name, pick[j], v)
					}
				}
			}
		}
	}
}
