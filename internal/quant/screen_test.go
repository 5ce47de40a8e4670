package quant

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// The screen decides a row by one integer comparison, d ≥ D, against the cut
// D = intCut(qs, sp, resid, cut) of its call. Two things must hold on any
// input the screen can meet — not only the values quantization produces:
// the cut is sound (every row it discards has qs·sp·d + resid < cut in exact
// arithmetic, checked with math/big), and the assembly keeps exactly the
// rows its Go twins keep. These tests build Rows and Screen from raw values,
// so the scales, cutoffs and the Screen's constants take any bit pattern.
// With -tags purego both sides run the Go code.

// edgeFloats are the values the cut's comparisons and roundings turn on:
// signed zeros, subnormals, the float64 extremes and their neighbours, and
// the powers of two at which cut − resid overflows or lands on the
// extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1e-3, 2.5, 41,
	math.NaN(), math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0), math.Nextafter(-math.MaxFloat64, 0),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022, 1e-300, 1e300,
	0x1p969, -0x1p969, 0x1p970, -0x1p970, 0x1p971, -0x1p971,
}

// exactBound is qs·sp·d + resid in exact arithmetic (finite operands).
func exactBound(qs, sp, resid float64, d int64) *big.Rat {
	b := new(big.Rat).SetFloat64(qs)
	b.Mul(b, new(big.Rat).SetFloat64(sp))
	b.Mul(b, new(big.Rat).SetInt64(d))
	return b.Add(b, new(big.Rat).SetFloat64(resid))
}

// checkCut holds D = intCut(qs, sp, resid, cut) to its contract: a NaN or
// ±Inf operand or a negative scale keeps every row; otherwise the largest
// discarded dot, D−1, has an exact bound below cut, and D is at most one
// below ⌈t⌉: the dot D+1 has an exact bound at or above cut. It returns D.
func checkCut(t testing.TB, qs, sp, resid, cut float64) int32 {
	t.Helper()
	D := intCut(qs, sp, resid, cut)
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	if !finite(qs) || !finite(sp) || !finite(resid) || !finite(cut) || qs < 0 || sp < 0 {
		if D != keepAll {
			t.Fatalf("intCut(%v, %v, %v, %v) = %d, want keepAll for a non-finite operand or negative scale", qs, sp, resid, cut, D)
		}
		return D
	}
	c := new(big.Rat).SetFloat64(cut)
	if D > keepAll {
		if b := exactBound(qs, sp, resid, int64(D)-1); b.Cmp(c) >= 0 {
			t.Fatalf("intCut(%v, %v, %v, %v) = %d discards d = %d, whose exact bound %s is not below the cut",
				qs, sp, resid, cut, D, D-1, b.FloatString(20))
		}
	}
	if D < dropAll {
		if b := exactBound(qs, sp, resid, int64(D)+1); b.Cmp(c) < 0 {
			t.Fatalf("intCut(%v, %v, %v, %v) = %d keeps d = %d, whose exact bound %s is below the cut: more than one short of ⌈t⌉",
				qs, sp, resid, cut, D, D+1, b.FloatString(20))
		}
	}
	return D
}

// TestIntCutSound checks intCut over random and adversarial operands: t on
// an integer (the cut is a row's own exact bound, and the row must be kept
// at exactly D = d), the cut one ulp above and below such a bound, |t| at
// and past 2³¹, NaN and ±Inf in every position, zero and negative scales,
// subnormal scales and cut − resid overflowing.
func TestIntCutSound(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	wide := func() float64 { // any magnitude, either sign
		return (rng.Float64()*2 - 1) * math.Ldexp(1, rng.Intn(2100)-1075)
	}
	pos := func() float64 { return math.Abs(wide()) }
	// Exact bounds: integer mantissas times powers of two, so qs·sp·d +
	// resid is often representable and t = d exactly.
	lattice := func(bits int) float64 {
		return math.Ldexp(float64(rng.Int63n(1<<bits)), rng.Intn(40)-20)
	}
	onInteger := 0
	for trial := 0; trial < 200000; trial++ {
		var qs, sp, resid, cut float64
		switch trial % 6 {
		case 0: // anything
			qs, sp, resid, cut = pos(), pos(), wide(), wide()
		case 1, 2: // the cut on a row's exact bound, or one ulp either side
			qs, sp, resid = lattice(20), lattice(20), lattice(30)
			if rng.Intn(2) == 0 {
				resid = -resid
			}
			d := rng.Int63n(1<<31) - 1<<30
			if rng.Intn(2) == 0 {
				d = rng.Int63n(2001) - 1000
			}
			exact, isExact := exactBound(qs, sp, resid, d).Float64()
			cut = exact
			switch rng.Intn(3) {
			case 1:
				cut = math.Nextafter(exact, math.Inf(1))
			case 2:
				cut = math.Nextafter(exact, math.Inf(-1))
			}
			D := checkCut(t, qs, sp, resid, cut)
			if isExact && cut == exact && D != int32(d) {
				t.Fatalf("intCut(%v, %v, %v, %v) = %d, want %d: t is exactly that integer", qs, sp, resid, cut, D, d)
			}
			if isExact && cut == exact {
				onInteger++
			}
			continue
		case 3: // |t| near and past 2³¹
			qs, sp, resid = lattice(20), lattice(20), wide()
			tt := math.Ldexp(rng.Float64()+0.5, 28+rng.Intn(8))
			if rng.Intn(2) == 0 {
				tt = -tt
			}
			cut = resid + qs*sp*tt
		case 4: // extremes: subnormal or huge scales, overflowing cut − resid
			qs = edgeFloats[rng.Intn(len(edgeFloats))]
			sp = edgeFloats[rng.Intn(len(edgeFloats))]
			resid = edgeFloats[rng.Intn(len(edgeFloats))]
			cut = edgeFloats[rng.Intn(len(edgeFloats))]
		case 5: // zero, negative or non-finite scales against ordinary operands
			zs := []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64}
			qs, sp, resid, cut = zs[rng.Intn(len(zs))], pos(), wide(), wide()
			if rng.Intn(2) == 0 {
				qs, sp = sp, qs
			}
		}
		checkCut(t, qs, sp, resid, cut)
	}
	if onInteger < 5000 {
		t.Fatalf("only %d trials put t exactly on an integer", onInteger)
	}
	// The clamps: t far above 2³¹ discards every row, far below keeps every
	// row; a zero product is resid against the cut.
	for _, c := range []struct {
		qs, sp, resid, cut float64
		want               int32
	}{
		{1, 1, 0, 0x1p40, dropAll},
		{1, 1, 0, -0x1p40, keepAll},
		{1, 1, 0, 0x1p31, dropAll},
		{1, 1, 0, -0x1p31, -0x1p31},
		{0x1p-1074, 0x1p-1074, 0, 1, dropAll},
		{0x1p-1074, 0x1p-1074, 1, 0, keepAll},
		{0, 1, 0, 1, dropAll},
		{1, math.Copysign(0, -1), 1, 1, keepAll},
		{1, 1, -math.MaxFloat64, math.MaxFloat64, dropAll},
		{0x1p1000, 0x1p1000, -math.MaxFloat64, math.MaxFloat64, 1},
		{1, 1, 5, 5, 0},
		{0.5, 0.25, 3, 3 + 17.0/8, 17},
	} {
		if D := checkCut(t, c.qs, c.sp, c.resid, c.cut); D != c.want {
			t.Errorf("intCut(%v, %v, %v, %v) = %d, want %d", c.qs, c.sp, c.resid, c.cut, D, c.want)
		}
	}
	// A zero panel screens on resid alone, and a panel holding a non-finite
	// row keeps every row.
	r := 16
	q := make([]float64, r)
	for i := range q {
		q[i] = float64(i + 1)
	}
	qq, ok := QuantizeQuery(make([]int8, r), q)
	if !ok {
		t.Fatal("query did not quantize")
	}
	zero := QuantizeRows(make([]float64, 3*r), r)
	scr := zero.NewScreen(qq, 1)
	rows := make([]int32, 3)
	if k := scr.Prefix(3, 2*scr.resid, rows); k != 0 {
		t.Fatalf("zero panel kept %d rows at a cut above its bound %v", k, scr.resid)
	}
	if k := scr.Prefix(3, scr.resid, rows); k != 3 {
		t.Fatalf("zero panel kept %d of 3 rows at a cut on its bound %v", k, scr.resid)
	}
	bad := make([]float64, 3*r)
	bad[r] = math.Inf(1)
	bad[2*r] = 1
	scr = QuantizeRows(bad, r).NewScreen(qq, 1)
	if k := scr.Prefix(3, math.MaxFloat64, rows); k != 3 {
		t.Fatalf("panel with a non-finite row kept %d of 3 rows", k)
	}
}

// screenCase is one screen over raw sidecar values.
type screenCase struct {
	scr Screen
	cut float64
}

func newScreenCase(q, codes []int8, scale, qs, resid, cut float64) screenCase {
	qr := &Rows{r: len(q), n: len(codes) / len(q), Scale: scale, Codes: codes}
	return screenCase{Screen{qr: qr, codes: q, qs: qs, resid: resid}, cut}
}

// prefixGo is the portable Prefix: the cut, then screenPanelGo.
func prefixGo(s *Screen, n int, cut float64, rows []int32) int {
	return screenPanelGo(s.codes, s.qr.Codes[:n*s.qr.r], s.intCut(cut), rows[:n])
}

// checkScreenShapes holds Prefix over every prefix length, List over every
// length of a scattered order with a repeat, and Screen8 over eight rows
// with a repeat against their Go twins (prefixGo, each row's dot against the
// cut, dot8Portable): same survivors in the same order, same dots, same
// mask. The cut itself goes through checkCut.
func checkScreenShapes(t testing.TB, c screenCase, rng *rand.Rand) {
	t.Helper()
	s := &c.scr
	r, n := s.qr.r, s.qr.n
	D := checkCut(t, s.qs, s.qr.Scale, s.resid, c.cut)
	want := make([]int32, n)
	keep := make([]bool, n)
	for i := range want {
		want[i] = plainDot(s.codes, s.qr.Row(i))
		keep[i] = want[i] >= D
	}
	describe := func() string {
		return fmt.Sprintf("r=%d qs=%v scale=%v resid=%v cut=%v (D=%d)", r, s.qs, s.qr.Scale, s.resid, c.cut, D)
	}

	rows, goRows := make([]int32, n), make([]int32, n)
	for m := 0; m <= n; m++ {
		k := s.Prefix(m, c.cut, rows)
		gk := prefixGo(s, m, c.cut, goRows)
		if k != gk || !slices.Equal(rows[:k], goRows[:gk]) {
			t.Fatalf("%s: Prefix of %d rows kept %v, Go twin %v", describe(), m, rows[:k], goRows[:gk])
		}
		for _, i := range rows[:k] {
			if !keep[i] {
				t.Fatalf("%s: Prefix of %d rows kept row %d (dot %d)", describe(), m, i, want[i])
			}
		}
	}

	if n == 0 {
		return
	}
	// Every length of the scattered order, so that List meets a ragged
	// tail of each size 1…7 once the order holds seven rows.
	order := rng.Perm(n)
	order = append(order, order[0])
	for m := 1; m <= len(order); m++ {
		list := make([]int32, m)
		var wantList []int32
		for j, i := range order[:m] {
			list[j] = int32(i)
			if keep[i] {
				wantList = append(wantList, int32(i))
			}
		}
		k := s.List(list, c.cut)
		if !slices.Equal(list[:k], wantList) {
			t.Fatalf("%s: List of %d rows kept %v, Go twin %v", describe(), m, list[:k], wantList)
		}
	}

	var ids [8]int
	for j := range ids {
		ids[j] = rng.Intn(n)
	}
	ids[7] = ids[0]
	ones := [8]float64{1, 1, 1, 1, 1, 1, 1, 1}
	var d8, g8 [8]int32
	mask := s.Screen8(ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6], ids[7], &ones, c.cut, &d8)
	if gm := dot8Portable(s.codes, s.qr.Codes, &ids, &g8, D); mask != gm || d8 != g8 {
		t.Fatalf("%s: Screen8 over rows %v: mask %08b dots %v, Go twin %08b dots %v", describe(), ids, mask, d8, gm, g8)
	}
}

// boundaryCut is the cut a selector picks for a screen: a raw value
// (sel 0), a row's own bound computed in floats (1), that bound one ulp
// above (2) or below (3), or a cut putting t past ±2³¹ (4, 5).
func boundaryCut(sel int, raw float64, c screenCase, row int) float64 {
	s := &c.scr
	d := float64(plainDot(s.codes, s.qr.Row(row)))
	own := s.qs*s.qr.Scale*d + s.resid
	switch sel % 6 {
	case 1:
		return own
	case 2:
		return math.Nextafter(own, math.Inf(1))
	case 3:
		return math.Nextafter(own, math.Inf(-1))
	case 4:
		return s.resid + s.qs*s.qr.Scale*0x1p31
	case 5:
		return s.resid - s.qs*s.qr.Scale*0x1p31
	}
	return raw
}

// TestScreenMatchesPortable sweeps r = 16…130 (and the narrower rows that
// never leave Go) over the code fills of the kernel tests plus a "unit"
// fill whose dots are −1, 0 or 1, with the floats drawn from edgeFloats,
// from raw bit patterns, and from realistic screens whose cutoff sits on a
// row's own bound, one ulp either side of it, or past ±2³¹ steps of the
// bound.
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
			for trial := 0; trial < 9; trial++ {
				var c screenCase
				switch {
				case trial%3 == 0: // edge values everywhere
					c = newScreenCase(q, codes, edge(), edge(), edge(), edge())
				case trial%3 == 1: // raw bit patterns
					c = newScreenCase(q, codes, raw(), raw(), raw(), raw())
				default: // a realistic screen, cut at a row's own bound
					c = newScreenCase(q, codes, 5*rng.Float64()/64, rng.Float64()/64, rng.Float64()/4, 0)
					c.cut = boundaryCut(1+rng.Intn(5), 0, c, rng.Intn(n))
				}
				checkScreenShapes(t, c, rng)
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
// screens: r = 16…130, one to 24 rows, codes and floats from the input, and
// the cut either fuzzed or placed on, one ulp beside, or ±2³¹ steps past a
// row's own bound (boundaryCut).
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
		c := newScreenCase(q, codes, in.float(), in.float(), in.float(), in.float())
		c.cut = boundaryCut(int(in.byte()), c.cut, c, int(in.byte())%n)
		rng := rand.New(rand.NewSource(int64(len(data))))
		checkScreenShapes(t, c, rng)
	})
}
