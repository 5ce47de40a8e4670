package quant

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The screen's assembly (the fused predicate of the eight-pointer kernel and
// the panel's second pass) must keep exactly the rows its Go twins keep, with
// the same dots, on any input the predicate can meet — not only the values
// quantization produces. These tests build Rows and Screen from raw values,
// so scales, cutoffs and the Screen's constants take any bit pattern. The
// oracle is survives over raw rows: a row's length lives in its codes and
// scale, so the predicate is ub < cut with no length operand. With -tags
// purego both sides run the Go code.

// edgeFloats are the values the predicate's comparisons and roundings turn
// on: signed zeros, subnormals, the float64 extremes and their neighbours,
// and the powers of two at which ub = product + resid lands exactly on or
// rounds past −MaxFloat64 when resid is −MaxFloat64 (its ulp is 2⁹⁷¹).
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1e-3, 2.5, 41,
	math.NaN(), math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0), math.Nextafter(-math.MaxFloat64, 0),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022, 1e-300, 1e300,
	0x1p969, -0x1p969, 0x1p970, -0x1p970, 0x1p971, -0x1p971,
}

// screenCase is one screen over raw sidecar values.
type screenCase struct {
	scr Screen
	cut float64
}

func newScreenCase(q, codes []int8, scales []float64, qs, resid, cut float64) screenCase {
	qr := &Rows{r: len(q), n: len(scales), Scales: scales, Codes: codes}
	return screenCase{Screen{qr: qr, codes: q, qs: qs, resid: resid}, cut}
}

// checkScreenShapes holds Prefix over every prefix length, List over a
// scattered order with a repeat, and Screen8 over eight rows with a repeat
// against their Go twins (prefixGo, dotGo + survives, screen8Go): same
// survivors in the same order, same dots, same mask.
func checkScreenShapes(t testing.TB, c screenCase, rng *rand.Rand) {
	t.Helper()
	s := &c.scr
	r, n := s.qr.r, s.qr.n
	want := make([]int32, n)
	keep := make([]bool, n)
	for i := range want {
		want[i] = plainDot(s.codes, s.qr.Row(i))
		keep[i] = survives(s.qs, s.resid, s.qr.Scales[i], want[i], c.cut)
	}
	describe := func() string {
		return fmt.Sprintf("r=%d qs=%v resid=%v cut=%v", r, s.qs, s.resid, c.cut)
	}

	dots, rows := make([]int32, n), make([]int32, n)
	goDots, goRows := make([]int32, n), make([]int32, n)
	for m := 0; m <= n; m++ {
		k := s.Prefix(m, c.cut, dots, rows)
		gk := prefixGo(s, m, c.cut, goDots, goRows)
		if k != gk || !slices.Equal(rows[:k], goRows[:gk]) || !slices.Equal(dots[:k], goDots[:gk]) {
			t.Fatalf("%s: Prefix of %d rows kept %v dots %v, Go twin %v dots %v",
				describe(), m, rows[:k], dots[:k], goRows[:gk], goDots[:gk])
		}
		for j, i := range rows[:k] {
			if !keep[i] || dots[j] != want[i] {
				t.Fatalf("%s: Prefix of %d rows kept row %d (dot %d), oracle keep %v dot %d",
					describe(), m, i, dots[j], keep[i], want[i])
			}
		}
	}

	if n == 0 {
		return
	}
	order := rng.Perm(n)
	order = append(order, order[0])
	list := make([]int32, len(order))
	var wantList, wantDots []int32
	for j, i := range order {
		list[j] = int32(i)
		if keep[i] {
			wantList, wantDots = append(wantList, int32(i)), append(wantDots, want[i])
		}
	}
	listDots := make([]int32, len(list))
	k := s.List(list, c.cut, listDots)
	if !slices.Equal(list[:k], wantList) || !slices.Equal(listDots[:k], wantDots) {
		t.Fatalf("%s: List kept %v dots %v, Go twin %v dots %v", describe(), list[:k], listDots[:k], wantList, wantDots)
	}

	var ids [8]int
	for j := range ids {
		ids[j] = rng.Intn(n)
	}
	ids[7] = ids[0]
	ones := [8]float64{1, 1, 1, 1, 1, 1, 1, 1}
	var d8, g8 [8]int32
	mask := s.Screen8(ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6], ids[7], &ones, c.cut, &d8)
	if gm := screen8Go(s, &ids, c.cut, &g8); mask != gm || d8 != g8 {
		t.Fatalf("%s: Screen8 over rows %v: mask %08b dots %v, Go twin %08b dots %v", describe(), ids, mask, d8, gm, g8)
	}
}

// TestScreenMatchesPortable sweeps r = 16…130 (and the narrower rows that
// never leave Go) over the code fills of the kernel tests plus a "unit"
// fill whose dots are −1, 0 or 1, with the floats drawn from edgeFloats,
// from raw bit patterns, and from realistic screens whose cutoff sits
// exactly on a row's upper bound and one ulp above it.
func TestScreenMatchesPortable(t *testing.T) {
	const n = 21 // two groups of eight and a five-row tail
	rng := rand.New(rand.NewSource(35))
	edge := func() float64 { return edgeFloats[rng.Intn(len(edgeFloats))] }
	raw := func() float64 { return math.Float64frombits(rng.Uint64()) }
	fills := append(codeFills[:len(codeFills):len(codeFills)], struct {
		name string
		fill func(rng *rand.Rand, q, panel []int8)
	}{"unit", func(rng *rand.Rand, q, panel []int8) {
		clear(q)
		q[0] = 1
		clear(panel)
		for i := 0; i < len(panel); i += len(q) {
			panel[i] = int8(rng.Intn(3) - 1)
		}
	}})
	for r := 1; r <= 130; r++ {
		q := make([]int8, r)
		codes := make([]int8, n*r)
		for _, fc := range fills {
			fc.fill(rng, q, codes)
			for trial := 0; trial < 7; trial++ {
				scales := make([]float64, n)
				var qs, resid, cut float64
				switch {
				case trial == 6: // ub on and just past −MaxFloat64
					for i := range scales {
						scales[i] = edgeFloats[len(edgeFloats)-1-i%7]
					}
					qs, resid, cut = 1, -math.MaxFloat64, math.Inf(1)
				case trial%3 == 0: // edge values everywhere
					for i := range scales {
						scales[i] = edge()
					}
					qs, resid, cut = edge(), edge(), edge()
				case trial%3 == 1: // raw bit patterns
					for i := range scales {
						scales[i] = raw()
					}
					qs, resid, cut = raw(), raw(), raw()
				default: // a realistic screen, cut on a row's own bound
					for i := range scales {
						scales[i] = 5 * rng.Float64() / 64
					}
					scales[2] = 0 // a zero row
					qs, resid = rng.Float64()/64, rng.Float64()/4
					i := rng.Intn(n)
					cut = float64(qs*scales[i]*float64(plainDot(q, codes[i*r:(i+1)*r]))) + resid
					if trial > 3 {
						cut = math.Nextafter(cut, math.Inf(1))
					}
				}
				checkScreenShapes(t, newScreenCase(q, codes, scales, qs, resid, cut), rng)
			}
		}
	}
}

// fuzzBytes hands out the fuzzer's bytes in order, cycling when they run
// out.
type fuzzBytes struct {
	b []byte
	i int
}

func (f *fuzzBytes) byte() byte {
	if len(f.b) == 0 {
		return 0
	}
	c := f.b[f.i%len(f.b)]
	f.i++
	return c
}

// float is an edge value when the selector byte says so, else the next
// eight bytes as raw bits.
func (f *fuzzBytes) float() float64 {
	if sel := f.byte(); sel&1 == 0 {
		return edgeFloats[int(sel>>1)%len(edgeFloats)]
	}
	var u uint64
	for k := 0; k < 8; k++ {
		u = u<<8 | uint64(f.byte())
	}
	return math.Float64frombits(u)
}

// FuzzScreenKernels is TestScreenMatchesPortable's oracle over fuzzed
// screens: r = 16…130, one to 24 rows, codes and floats from the input.
//
//	go test -run '^$' -fuzz FuzzScreenKernels -fuzztime 15s ./internal/quant
func FuzzScreenKernels(f *testing.F) {
	f.Add([]byte{34, 20, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 7, 255, 128, 127, 0, 1})
	f.Add([]byte{114, 23, 129, 127, 4, 6, 8, 10, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{b: data}
		r := 16 + int(in.byte())%115
		n := 1 + int(in.byte())%24
		q, codes := make([]int8, r), make([]int8, n*r)
		for _, v := range [][]int8{q, codes} {
			for i := range v {
				v[i] = max(int8(in.byte()), -127)
			}
		}
		scales := make([]float64, n)
		for i := range scales {
			scales[i] = in.float()
		}
		qs, resid, cut := in.float(), in.float(), in.float()
		rng := rand.New(rand.NewSource(int64(len(data))))
		checkScreenShapes(t, newScreenCase(q, codes, scales, qs, resid, cut), rng)
	})
}
