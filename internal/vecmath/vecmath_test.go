package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDotBasic(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{nil, nil, 0},
		{[]float64{2}, []float64{3}, 6},
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{[]float64{1, 2, 3, 4, 5}, []float64{5, 4, 3, 2, 1}, 35},
		{[]float64{1, -1, 1, -1}, []float64{1, 1, 1, 1}, 0},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); got != c.want {
			t.Errorf("Dot(%v,%v)=%g want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestDotPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched lengths")
		}
	}()
	Dot([]float64{1, 2}, []float64{1})
}

func TestDotMatchesNaiveLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		a := make([]float64, n)
		b := make([]float64, n)
		var want float64
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			want += a[i] * b[i]
		}
		if got := Dot(a, b); !almostEqual(got, want, 1e-12) {
			t.Fatalf("n=%d: Dot=%g naive=%g", n, got, want)
		}
	}
}

func TestNormalize(t *testing.T) {
	v := []float64{3, 4}
	dst := make([]float64, 2)
	if n := Normalize(dst, v); n != 5 {
		t.Fatalf("norm %g, want 5", n)
	}
	if !almostEqual(dst[0], 0.6, 1e-12) || !almostEqual(dst[1], 0.8, 1e-12) {
		t.Fatalf("normalized %v", dst)
	}
	// Aliasing.
	if n := Normalize(v, v); n != 5 {
		t.Fatalf("aliased norm %g", n)
	}
	if !almostEqual(v[0], 0.6, 1e-12) || !almostEqual(v[1], 0.8, 1e-12) {
		t.Fatalf("aliased normalize %v", v)
	}
	// Zero vector.
	z := []float64{0, 0, 0}
	if n := Normalize(z, z); n != 0 {
		t.Fatalf("zero-vector norm %g", n)
	}
	for _, x := range z {
		if x != 0 {
			t.Fatalf("zero vector mutated: %v", z)
		}
	}
}

// Property: Cauchy–Schwarz — |a·b| ≤ ‖a‖‖b‖.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		for _, x := range append(append([]float64{}, a...), b...) {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // quick can generate extreme values; skip
			}
		}
		lhs := math.Abs(Dot(a, b))
		rhs := Norm(a) * Norm(b)
		return lhs <= rhs*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: normalization produces unit vectors (or zero).
func TestNormalizeUnitProperty(t *testing.T) {
	f := func(v []float64) bool {
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		dst := make([]float64, len(v))
		n := Normalize(dst, v)
		if n == 0 {
			return Norm(dst) == 0
		}
		return almostEqual(Norm(dst), 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistancesConsistent(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 6, 3}
	if d := Dist(a, b); d != 5 {
		t.Errorf("Dist=%g want 5", d)
	}
	if d := Dist(a, a); d != 0 {
		t.Errorf("Dist(a,a)=%g", d)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestScale(t *testing.T) {
	v := []float64{1, -2, 3}
	dst := make([]float64, 3)
	Scale(dst, v, -2)
	if dst[0] != -2 || dst[1] != 4 || dst[2] != -6 {
		t.Errorf("Scale result %v", dst)
	}
	Scale(v, v, 0.5) // aliasing
	if v[0] != 0.5 {
		t.Errorf("aliased Scale result %v", v)
	}
}

// TestNormScalesUnderflowingRows: a row whose squared coordinates all
// underflow still has its length, a normal row's length is the plain sum's,
// and a row whose length is itself subnormal has length 0, as NaN stays NaN.
func TestNormScalesUnderflowingRows(t *testing.T) {
	if n := Norm([]float64{3e-163, 4e-163}); !almostEqual(n, 5e-163, 1e-15) {
		t.Errorf("Norm of a 3-4-5 row at 1e-163 = %g, want 5e-163", n)
	}
	if n := Norm([]float64{1e-200, 0, -1e-200}); !almostEqual(n, math.Sqrt2*1e-200, 1e-15) {
		t.Errorf("Norm of a row at 1e-200 = %g, want √2·1e-200", n)
	}
	v := []float64{0.3, -1e-170, 0.4}
	if n := Norm(v); n != math.Sqrt(Norm2(v)) {
		t.Errorf("Norm of a normal row = %g, want the plain sum's %g", n, math.Sqrt(Norm2(v)))
	}
	for _, v := range [][]float64{{5e-324, -5e-324}, {1e-310}, {0, math.Copysign(0, -1)}, {}} {
		if n := Norm(v); n != 0 {
			t.Errorf("Norm(%v) = %g, want 0", v, n)
		}
	}
	if n := Norm([]float64{1e-200, math.NaN()}); !math.IsNaN(n) {
		t.Errorf("Norm of a row holding NaN = %g, want NaN", n)
	}
}

// TestNormMaxAbsMatchesNormAndMax: NormMaxAbs gives Norm's bits and the
// largest |x| of every finite row: Gaussian rows at magnitudes from 1e-300
// to 1e150, rows whose squares underflow (Norm's scaled path), subnormal
// coordinates, signed zeros and empty rows.
func TestNormMaxAbsMatchesNormAndMax(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	rows := [][]float64{{}, {0, math.Copysign(0, -1)}, {5e-324, -5e-324}, {3e-163, -4e-163}, {1e-310, 0.5}}
	for _, mag := range []float64{1e-300, 1e-170, 1e-163, 1e-3, 1, 1e3, 1e150} {
		for _, r := range []int{1, 3, 16, 50, 67} {
			v := make([]float64, r)
			for f := range v {
				v[f] = mag * rng.NormFloat64()
			}
			rows = append(rows, v)
		}
	}
	for _, v := range rows {
		want := 0.0
		for _, x := range v {
			want = max(want, math.Abs(x))
		}
		n, m := NormMaxAbs(v)
		if math.Float64bits(n) != math.Float64bits(Norm(v)) || math.Float64bits(m) != math.Float64bits(want) {
			t.Errorf("NormMaxAbs(%v) = (%v, %v), want (%v, %v)", v, n, m, Norm(v), want)
		}
	}
}
