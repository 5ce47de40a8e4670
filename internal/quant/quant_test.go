package quant_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"lemp/internal/quant"
	"lemp/internal/vecmath"
)

// naiveDotQ8 is the reference for the unrolled kernel.
func naiveDotQ8(a, b []int8) int32 {
	var s int32
	for i := range a {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

// prefix screens the first n rows of s's panel against cut as a Block of
// one, the panel screen every prefix takes, and returns the survivor count;
// the survivors' row numbers are in rows, which must hold n elements.
func prefix(s quant.Screen, n int, cut float64, rows []int32) int {
	var b quant.Block
	b.Add(s, n, cut)
	return b.Run(&[4][]int32{rows})[0]
}

func TestDotQ8MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, r := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 100, 257} {
		a := make([]int8, r)
		b := make([]int8, r)
		for trial := 0; trial < 20; trial++ {
			for i := range a {
				a[i] = int8(rng.Intn(255) - 127)
				b[i] = int8(rng.Intn(255) - 127)
			}
			if got, want := quant.DotQ8(a, b), naiveDotQ8(a, b); got != want {
				t.Fatalf("r=%d: DotQ8 = %d, naive = %d", r, got, want)
			}
		}
	}
}

// TestBatchedKernelsMatchScalar: Screen8, the panel screen (prefix) and List exist only for
// speed — every batched shape must reach the screen/survive decisions of
// the one-row path (List over a single row: DotQ8 against the cut), and
// Screen8 hand back its dots, across cutoffs that land inside and outside
// the bound range, and compact its survivors in order.
func TestBatchedKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 21 // prefix and List: two blocks of eight and a five-row tail
	for _, r := range []int{1, 3, 4, 8, 16, 33, 50, 64} {
		rows := make([]float64, n*r)
		q := make([]float64, r)
		for trial := 0; trial < 10; trial++ {
			for i := range rows {
				rows[i] = rng.NormFloat64() * math.Exp(3*rng.NormFloat64())
			}
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			clear(rows[2*r : 3*r]) // a zero row
			qr := quant.QuantizeRows(rows, r)
			qq, ok := quant.QuantizeQuery(make([]int8, r), q)
			if !ok {
				t.Fatalf("r=%d: query did not quantize", r)
			}
			scr := qr.NewScreen(qq, 1.5)
			for _, cut := range []float64{-10, -0.1, 0, 0.1, 1, 10, math.Inf(1)} {
				// The one-row path decides each row on its own.
				var wantRows []int32
				for i := 0; i < n; i++ {
					if one := []int32{int32(i)}; scr.List(one, cut) == 1 {
						wantRows = append(wantRows, int32(i))
					}
				}
				got := make([]int32, n)
				k := prefix(scr, n, cut, got)
				if !slices.Equal(got[:k], wantRows) {
					t.Fatalf("r=%d cut %v: prefix kept %v, one-row path %v", r, cut, got[:k], wantRows)
				}
				// List over a scattered order with a repeat: survivors stay in
				// list order.
				order := rng.Perm(n)
				order[n-1] = order[0]
				list := make([]int32, n)
				var wantList []int32
				for j, i := range order {
					list[j] = int32(i)
					if slices.Contains(wantRows, int32(i)) {
						wantList = append(wantList, int32(i))
					}
				}
				k = scr.List(list, cut)
				if !slices.Equal(list[:k], wantList) {
					t.Fatalf("r=%d cut %v: List kept %v, one-row path %v", r, cut, list[:k], wantList)
				}
				ids := [8]int{5, 2, 7, 0, 3, 6, 1, 4}
				ones := [8]float64{1, 1, 1, 1, 1, 1, 1, 1}
				var d8 [8]int32
				mask := scr.Screen8(ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6], ids[7], &ones, cut, &d8)
				for j, i := range ids {
					if want := quant.DotQ8(qq.Codes, qr.Row(i)); d8[j] != want {
						t.Fatalf("r=%d: Screen8 dot %d of row %d, DotQ8 %d", r, d8[j], i, want)
					}
					if got, want := mask>>j&1 == 1, slices.Contains(wantRows, int32(i)); got != want {
						t.Fatalf("r=%d row %d cut %v: Screen8 keep = %v, one-row path = %v", r, i, cut, got, want)
					}
				}
			}
		}
	}
}

func TestDotQ8SaturationNoOverflow(t *testing.T) {
	// The extreme case the int32 contract is sized for: every product is
	// 127·127 at the maximal supported dimension.
	r := quant.MaxDim
	a := make([]int8, r)
	b := make([]int8, r)
	for i := range a {
		a[i], b[i] = 127, 127
	}
	want := int64(127*127) * int64(r)
	if want > math.MaxInt32 {
		t.Fatalf("MaxDim contract broken: %d products overflow int32", r)
	}
	if got := quant.DotQ8(a, b); int64(got) != want {
		t.Fatalf("DotQ8 at saturation = %d, want %d", got, want)
	}
	for i := range b {
		b[i] = -127
	}
	if got := quant.DotQ8(a, b); int64(got) != -want {
		t.Fatalf("DotQ8 at negative saturation = %d, want %d", got, -want)
	}
}

// checkBracket asserts the screening contract for one (query, panel) pair:
// for every row, approx−bound ≤ Dot(q, row) ≤ approx+bound, where Dot is the
// exact float64 kernel the verifier runs. Non-finite rows must report an
// infinite bound (never screened). Returns false on violation.
func checkBracket(t *testing.T, q, rows []float64, r int) bool {
	t.Helper()
	qr := quant.QuantizeRows(rows, r)
	dst := make([]int8, r)
	qq, ok := quant.QuantizeQuery(dst, q)
	if !ok {
		// Unquantizable query: screening is off entirely; nothing to check.
		return true
	}
	if !checkScreen(t, qr, qq, q, rows) {
		return false
	}
	for i := 0; i < qr.N(); i++ {
		row := rows[i*r : (i+1)*r]
		approx, bound := qr.ApproxBound(qq, row, i)
		exact := vecmath.Dot(q, row)
		if math.IsInf(bound, 1) {
			continue // never screened: contract holds vacuously
		}
		finite := true
		for _, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				finite = false
			}
		}
		if !finite {
			t.Errorf("non-finite row %d got finite bound %v", i, bound)
			return false
		}
		if !(approx-bound <= exact && exact <= approx+bound) {
			t.Errorf("row %d: exact %v outside [%v, %v] (approx %v, bound %v)",
				i, exact, approx-bound, approx+bound, approx, bound)
			return false
		}
	}
	return true
}

// checkScreen is checkBracket's twin for the screening predicate, over the
// same inputs: ub ≥ fl(emit·Dot(q, row_i)), observed the way the verifier
// relies on it — with the cutoff set to the very value the exact path would
// emit for row i, row i must survive every shape of the screen (a NaN
// cutoff, from an overflowed exact dot, discards nothing). emit = 1 is
// retrieval's screen, whose value is the bare dot of the raw rows; the
// others check that the folded factor scales the bound with the value.
func checkScreen(t *testing.T, qr *quant.Rows, qq quant.Query, q, rows []float64) bool {
	t.Helper()
	r, n := qr.R(), qr.N()
	keep, list := make([]int32, n), make([]int32, 1)
	ones := [8]float64{1, 1, 1, 1, 1, 1, 1, 1}
	for _, emit := range []float64{1, 2.5, 1e-3} {
		scr := qr.NewScreen(qq, emit)
		for i := 0; i < n; i++ {
			cut := vecmath.Dot(q, rows[i*r:(i+1)*r]) * emit
			if k := prefix(scr, n, cut, keep); !slices.Contains(keep[:k], int32(i)) {
				t.Errorf("row %d (emit %v): prefix discards it at its own value %v", i, emit, cut)
				return false
			}
			if list[0] = int32(i); scr.List(list, cut) != 1 {
				t.Errorf("row %d (emit %v): List discards it at its own value %v", i, emit, cut)
				return false
			}
			var d8 [8]int32
			if mask := scr.Screen8(i, i, i, i, i, i, i, i, &ones, cut, &d8); mask != 0xff {
				t.Errorf("row %d (emit %v): Screen8 mask %08b at its own value %v", i, emit, mask, cut)
				return false
			}
		}
	}
	return true
}

func TestApproxBoundBracketsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Values spanning many magnitudes: quick's default float64 generator
	// only produces moderate values, so draw mantissa and exponent
	// separately to reach subnormals, huge values and saturation edges.
	genVal := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(255) - 127) // exact int8 lattice points
		default:
			return (rng.Float64()*2 - 1) * math.Pow(2, float64(rng.Intn(600)-300))
		}
	}
	for trial := 0; trial < 300; trial++ {
		r := 1 + rng.Intn(48)
		n := 1 + rng.Intn(6)
		rows := make([]float64, n*r)
		q := make([]float64, r)
		for i := range rows {
			rows[i] = genVal()
		}
		for i := range q {
			q[i] = genVal()
		}
		if !checkBracket(t, q, rows, r) {
			t.Fatalf("trial %d (r=%d, n=%d) violated the bracket", trial, r, n)
		}
	}
}

func TestApproxBoundQuickRandom(t *testing.T) {
	// testing/quick over its own generator as a second, independent source
	// of inputs (moderate magnitudes, adversarial bit patterns).
	f := func(qv, rv [16]float64) bool {
		return checkBracket(t, qv[:], rv[:], 16)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestApproxBoundAdversarialRows(t *testing.T) {
	r := 8
	mk := func(v float64) []float64 {
		row := make([]float64, r)
		for i := range row {
			row[i] = v
		}
		return row
	}
	cases := [][]float64{
		mk(0),                           // zero row
		mk(1),                           // constant row
		mk(-1),                          // negative constant
		mk(127),                         // int8 saturation value
		mk(127.5),                       // rounds past the lattice
		mk(math.MaxFloat64),             // scale at the float ceiling
		mk(math.SmallestNonzeroFloat64), // subnormal row
		mk(1e-300),                      // near the tiny slack
		mk(1e300),                       // huge but finite
		{1, -1, 127, -127, 0.5, -0.5, 126.9999, -0.0001},
		{math.MaxFloat64, -math.MaxFloat64, 1, -1, 0, 0, 0, 0},
	}
	rows := make([]float64, 0, len(cases)*r)
	for _, c := range cases {
		rows = append(rows, c...)
	}
	queries := [][]float64{
		mk(0), mk(1), mk(-1), mk(0.007),
		{1, 2, 3, 4, -4, -3, -2, -1},
		mk(1e-200), mk(1e200),
	}
	for _, q := range queries {
		if !checkBracket(t, q, rows, r) {
			t.Fatalf("adversarial case violated the bracket for query %v", q[:2])
		}
	}
}

func TestNonFiniteRowsNeverScreened(t *testing.T) {
	r := 4
	rows := []float64{
		1, 2, 3, 4,
		math.NaN(), 1, 1, 1,
		math.Inf(1), 0, 0, 0,
		0, math.Inf(-1), 0, 0,
	}
	qr := quant.QuantizeRows(rows, r)
	for i := 1; i < 4; i++ {
		if resid, _ := qr.RowBounds(rows[i*r : (i+1)*r]); !math.IsInf(resid, 1) {
			t.Fatalf("non-finite row %d must carry an infinite residual, got %v", i, resid)
		}
	}
	dst := make([]int8, r)
	qq, ok := quant.QuantizeQuery(dst, []float64{1, 1, 1, 1})
	if !ok {
		t.Fatal("finite query failed to quantize")
	}
	for i := 1; i < 4; i++ {
		approx, bound := qr.ApproxBound(qq, rows[i*r:(i+1)*r], i)
		if approx != 0 || !math.IsInf(bound, 1) {
			t.Fatalf("row %d: want (0, +Inf), got (%v, %v)", i, approx, bound)
		}
		// The screening predicate "upper bound < cut" must be false for
		// every cut, including +Inf and NaN.
		for _, cut := range []float64{-1, 0, 1e300, math.Inf(1)} {
			if approx+bound < cut {
				t.Fatalf("row %d screened at cut %v", i, cut)
			}
		}
	}
	// The screen keeps them through every shape, at any cutoff and emit.
	for _, emit := range []float64{1, 3, 0} {
		scr := qr.NewScreen(qq, emit)
		for _, cut := range []float64{-1, 0, 1e300, math.Inf(1)} {
			keep := make([]int32, 4)
			k := prefix(scr, 4, cut, keep)
			for i := int32(1); i < 4; i++ {
				if !slices.Contains(keep[:k], i) {
					t.Fatalf("emit %v cut %v: prefix kept %v, dropping non-finite row %d", emit, cut, keep[:k], i)
				}
			}
			list := []int32{3, 1, 2}
			if k := scr.List(list, cut); k != 3 {
				t.Fatalf("emit %v cut %v: List kept %v of the non-finite rows", emit, cut, list[:k])
			}
			l8 := [8]float64{1, 1, 1, 1, 1, 1, 1, 1}
			var d8 [8]int32
			if mask := scr.Screen8(1, 2, 3, 1, 2, 3, 1, 2, &l8, cut, &d8); mask != 0xff {
				t.Fatalf("emit %v cut %v: Screen8 mask %08b over non-finite rows", emit, cut, mask)
			}
		}
	}
}

func TestNonFiniteQueryDisablesScreening(t *testing.T) {
	r := 4
	dst := make([]int8, r)
	for _, q := range [][]float64{
		{math.NaN(), 0, 0, 0},
		{math.Inf(1), 1, 1, 1},
		{1, math.Inf(-1), 1, 1},
	} {
		if _, ok := quant.QuantizeQuery(dst, q); ok {
			t.Fatalf("non-finite query %v must not quantize", q)
		}
	}
	if _, ok := quant.QuantizeQuery(nil, nil); ok {
		t.Fatal("empty query must not quantize")
	}
}

func TestQuantizeRowsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r, n := 24, 50
	rows := make([]float64, n*r)
	for i := range rows {
		rows[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
	}
	a := quant.QuantizeRows(rows, r)
	b := quant.QuantizeRows(rows, r)
	if a.Scale != b.Scale {
		t.Fatal("quantization step not deterministic")
	}
	for i := range a.Codes {
		if a.Codes[i] != b.Codes[i] {
			t.Fatalf("code %d differs across runs", i)
		}
	}
}

func TestRowsAccessors(t *testing.T) {
	rows := []float64{1, 2, 3, 4, 5, 6}
	qr := quant.QuantizeRows(rows, 3)
	if qr.R() != 3 || qr.N() != 2 {
		t.Fatalf("R/N = %d/%d, want 3/2", qr.R(), qr.N())
	}
	if len(qr.Row(1)) != 3 {
		t.Fatalf("Row(1) len %d", len(qr.Row(1)))
	}
	wantBytes := 6 + 8 // r bytes per row and one scale
	if qr.Bytes() != wantBytes {
		t.Fatalf("Bytes = %d, want %d", qr.Bytes(), wantBytes)
	}
	var nilRows *quant.Rows
	if nilRows.Bytes() != 0 {
		t.Fatal("nil Rows must report 0 bytes")
	}
}

func TestQuantizeRowsPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"zero dim", func() { quant.QuantizeRows(nil, 0) }},
		{"over MaxDim", func() { quant.QuantizeRows(make([]float64, quant.MaxDim+1), quant.MaxDim+1) }},
		{"ragged", func() { quant.QuantizeRows(make([]float64, 7), 3) }},
		{"dotq8 len", func() { quant.DotQ8(make([]int8, 3), make([]int8, 4)) }},
		{"query buf", func() { quant.QuantizeQuery(make([]int8, 2), make([]float64, 3)) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestScreeningIsUseful(t *testing.T) {
	// The bound must not only be sound but tight enough to screen: for a
	// well-scaled catalog, a candidate whose true dot is far below a
	// threshold must actually be screenable.
	rng := rand.New(rand.NewSource(4))
	r := 32
	n := 256
	rows := make([]float64, n*r)
	for i := range rows {
		rows[i] = rng.NormFloat64()
	}
	// Normalize rows to unit length, like core quantizes bucket directions.
	for i := 0; i < n; i++ {
		row := rows[i*r : (i+1)*r]
		vecmath.Normalize(row, row)
	}
	qr := quant.QuantizeRows(rows, r)
	q := make([]float64, r)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	vecmath.Normalize(q, q)
	dst := make([]int8, r)
	qq, ok := quant.QuantizeQuery(dst, q)
	if !ok {
		t.Fatal("unit query failed to quantize")
	}
	theta := 0.5 // high threshold for unit vectors: most dots are far below
	screened := 0
	for i := 0; i < n; i++ {
		approx, bound := qr.ApproxBound(qq, rows[i*r:(i+1)*r], i)
		if approx+bound < theta {
			screened++
			if exact := vecmath.Dot(q, rows[i*r:(i+1)*r]); exact >= theta {
				t.Fatalf("row %d screened but exact dot %v ≥ θ", i, exact)
			}
		}
	}
	if screened < n/2 {
		t.Fatalf("bound too loose: only %d/%d unit rows screened at θ=%v", screened, n, theta)
	}
}
