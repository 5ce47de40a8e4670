package server

import (
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// jsonNumber is the JSON number grammar, after optional JSON whitespace.
var jsonNumber = regexp.MustCompile(`^[ \t\n\r]*-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// checkFloat holds scanner.float on lit to strconv.ParseFloat: a literal of
// JSON number grammar is consumed whole and converts to ParseFloat's bits,
// or is refused exactly where ParseFloat reports an error; anything else is
// never consumed whole.
func checkFloat(t *testing.T, lit string) {
	t.Helper()
	s := scanner{b: []byte(lit)}
	got, ok := s.float()
	whole := ok && s.i == len(lit)
	if !jsonNumber.MatchString(lit) {
		if whole {
			t.Fatalf("%q is not a JSON number, yet float consumed it whole as %v", lit, got)
		}
		return
	}
	want, err := strconv.ParseFloat(strings.TrimLeft(lit, " \t\n\r"), 64)
	switch {
	case err != nil && ok:
		t.Fatalf("%q: float gave %v; strconv.ParseFloat refuses it: %v", lit, got, err)
	case err == nil && !whole:
		t.Fatalf("%q: float refused it (ok %v, consumed %d of %d bytes); strconv.ParseFloat gives %v", lit, ok, s.i, len(lit), want)
	case err == nil && math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("%q: float gave %v (%#016x), strconv.ParseFloat %v (%#016x)",
			lit, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestFloatMatchesParseFloat is the single-pass parser's property test: on
// random bit patterns in every format strconv writes, long and truncated
// mantissas, subnormals and the boundary literals, it gives
// strconv.ParseFloat's bits.
func TestFloatMatchesParseFloat(t *testing.T) {
	for _, lit := range []string{
		"0", "-0", "-0.0", "0e400", "-0e-400", "1", "-1", "5e-324", "4.9406564584124654e-324",
		"2.2250738585072011e-308", "2.2250738585072014e-308", "2.225073858507201e-308",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "-1.7976931348623157e308",
		"1e23", "8.98846567431158e307", "9007199254740993", "9007199254740992", "9007199254740991",
		"9223372036854775807", "9223372036854775808", "18446744073709551615", "18446744073709551616",
		"1e22", "1e-22", "123456789012345678e-22", "0.1", "0.3", "1e-400", "2.4703282292062327e-324",
		"2.4703282292062328e-324", "1e308", "1e309", "0.000000000000000000000000000000001",
		"100000000000000000000000000000000000000000e-30", "1e9999", "1e-9999", "1e10000", "0e99999999999",
		"0.1e10001", "7.2057594037927933e16", "1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203124", "1.00000000000000011102230246251565404236316680908203126",
	} {
		checkFloat(t, lit)
	}

	rng := rand.New(rand.NewSource(1))
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		if b[0] == '0' {
			b[0] = '1'
		}
		return string(b)
	}
	for trial := 0; trial < 200000; trial++ {
		x := math.Float64frombits(rng.Uint64())
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		switch trial % 8 {
		case 0, 1:
			checkFloat(t, strconv.FormatFloat(x, 'g', -1, 64))
		case 2:
			checkFloat(t, strconv.FormatFloat(x, 'e', rng.Intn(25), 64))
		case 3:
			if math.Abs(x) < 1e30 && math.Abs(x) > 1e-30 {
				checkFloat(t, strconv.FormatFloat(x, 'f', -1, 64))
			} else {
				checkFloat(t, strconv.FormatFloat(rng.NormFloat64(), 'f', rng.Intn(20), 64))
			}
		case 4: // 19, 20 and 40 significant digits, truncated or not
			n := [...]int{19, 20, 40}[rng.Intn(3)]
			checkFloat(t, digits(n)+"e"+strconv.Itoa(rng.Intn(700)-350-n))
		case 5:
			d := digits(1 + rng.Intn(40))
			p := 1 + rng.Intn(len(d))
			checkFloat(t, "-"+d[:p]+"."+d[p:]+"1e"+strconv.Itoa(rng.Intn(60)-30))
		case 6: // subnormals and the normal boundary
			y := math.Float64frombits(rng.Uint64() & (1<<53 - 1))
			checkFloat(t, strconv.FormatFloat(y, 'g', -1, 64))
			checkFloat(t, strconv.FormatFloat(y, 'e', rng.Intn(25), 64))
		default: // the benchmark's coordinates
			checkFloat(t, strconv.FormatFloat(rng.NormFloat64(), 'g', -1, 64))
		}
	}
}

// TestFloatRefusesNonJSON keeps strconv's wider syntax out, as the grammar
// pass before strconv.ParseFloat always did, and refuses a literal out of
// float64 range.
func TestFloatRefusesNonJSON(t *testing.T) {
	for _, lit := range []string{
		"1e400", "-1e400", "-", "01", "012", "-01.5", ".5", "1.", "1.e5", "1e", "1e+", "1E-", "+1",
		"NaN", "nan", "Inf", "-Infinity", "0x1p3", "0X10", "1_0", "1_000.5", "", " ", "e5", "--1",
	} {
		s := scanner{b: []byte(lit)}
		if x, ok := s.float(); ok && s.i == len(lit) {
			t.Errorf("%q decoded as %v; it is not a JSON number in float64 range", lit, x)
		}
	}
}

// FuzzParseNumber compares the single-pass parser with strconv.ParseFloat
// on every string of JSON number grammar, and checks no other string is
// consumed whole.
//
//	go test -run '^$' -fuzz FuzzParseNumber -fuzztime 15s ./internal/server
func FuzzParseNumber(f *testing.F) {
	for _, seed := range []string{
		"0", "-0", "1.5", "-0.4378294358732912", "5e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
		"1e23", "9007199254740993", "12345678901234567890123", "1e400", "0.000001e-300", "01", ".5", "1.", "1e",
	} {
		f.Add(seed)
	}
	f.Fuzz(checkFloat)
}

// TestPow10TableRows pins rows of the Eisel–Lemire table the first call
// builds: the first and last, 10⁰ and 10⁻¹ (a repeating binary fraction,
// rounded down).
func TestPow10TableRows(t *testing.T) {
	tab := pow10Table128()
	for _, tc := range []struct {
		e      int
		hi, lo uint64
	}{
		{-348, 0xFA8FD5A0081C0288, 0x1732C869CD60E453},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x8000000000000000, 0},
		{1, 0xA000000000000000, 0},
		{347, 0xD13EB46469447567, 0x4B7195F2D2D1A9FB},
	} {
		if got := tab[tc.e-pow10Min]; got != [2]uint64{tc.hi, tc.lo} {
			t.Errorf("10^%d: %#x, want %#x", tc.e, got, [2]uint64{tc.hi, tc.lo})
		}
	}
}
