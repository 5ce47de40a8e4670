package server

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync"
)

// A coordinate is decoded in one pass over its literal. The pass checks
// JSON's number grammar, takes up to 19 significant digits into a uint64
// mantissa and tracks the decimal exponent; the pair then converts without a
// second look at the bytes. Where mantissa and power of ten are both exact
// in float64 one multiplication or division rounds correctly (Clinger's fast
// path); otherwise Eisel–Lemire's 128-bit product decides (Lemire, "Number
// Parsing at a Gigabyte per Second", SPE 2021), the algorithm
// strconv.ParseFloat itself runs first. Both are correctly rounded, so both
// give ParseFloat's bits. The literals neither settles — more than 19
// significant digits, an ambiguous halfway product, a subnormal or
// out-of-range result, an exponent past 10⁴ — go to strconv.ParseFloat.

// maxMantDigits is the number of significant decimal digits that always fit
// in a uint64.
const maxMantDigits = 19

// exactPow10 holds the powers of ten float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// float consumes one literal of JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and converts it as
// strconv.ParseFloat — and so encoding/json — does. The grammar keeps
// strconv's wider syntax (NaN, Inf, hex floats, underscores, a leading '+')
// out, and a literal out of float64 range (1e400) reports false.
func (s *scanner) float() (float64, bool) {
	s.ws()
	b, i := s.b, s.i
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var man uint64
	nd, exp := 0, 0 // digits in man; the literal is man·10^exp
	trunc := false  // a nonzero digit past the 19th was dropped
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		j := i
		i, man = accumulate(b, i, 0, maxMantDigits)
		nd = i - j
		j, i = i, digits(b, i) // integer digits past the 19th scale man
		exp, trunc = i-j, nonzero(b[j:i])
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if nd == 0 { // leading zeros only move the point
			for i < len(b) && b[i] == '0' {
				i++
			}
			exp -= i - frac
		}
		j := i
		i, man = accumulate(b, i, man, maxMantDigits-nd)
		nd += i - j
		exp -= i - j
		j, i = i, digits(b, i)
		trunc = trunc || nonzero(b[j:i])
		if i == frac {
			return 0, false
		}
	}
	huge := false // the exponent literal is 10⁴ or more
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		first, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == first {
			return 0, false
		}
		huge = e >= 10000
		if eneg {
			e = -e
		}
		exp += e
	}
	s.i = i
	if !trunc && !huge {
		switch {
		case man == 0:
			if neg {
				return math.Copysign(0, -1), true
			}
			return 0, true
		case man < 1<<53 && -22 <= exp && exp <= 22:
			f := float64(man)
			if exp >= 0 {
				f *= exactPow10[exp]
			} else {
				f /= exactPow10[-exp]
			}
			if neg {
				f = -f
			}
			return f, true
		}
		if f, ok := eiselLemire(man, exp, neg); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, err == nil
}

// accumulate appends to man the run of ASCII digits at b[i:], at most room
// of them, and returns the index past those it took.
func accumulate(b []byte, i int, man uint64, room int) (int, uint64) {
	for end := min(len(b), i+room); i < end && '0' <= b[i] && b[i] <= '9'; i++ {
		man = man*10 + uint64(b[i]-'0')
	}
	return i, man
}

// nonzero reports whether the digits d hold one other than '0'.
func nonzero(d []byte) bool {
	for _, c := range d {
		if c != '0' {
			return true
		}
	}
	return false
}

// pow10Min and pow10Max are the decimal exponents of the first and last
// rows of the Eisel–Lemire table: the range in which a 19-digit mantissa can
// land on a normal float64.
const (
	pow10Min = -348
	pow10Max = 347
)

// pow10Table holds, for each e in [pow10Min, pow10Max], the 128 most
// significant bits of 10^e, rounded down: high word, low word.
type pow10Table [pow10Max - pow10Min + 1][2]uint64

var pow10Table128 = sync.OnceValue(func() *pow10Table {
	t := new(pow10Table)
	row := func(e int, m *big.Int) {
		lo := new(big.Int).And(m, new(big.Int).SetUint64(math.MaxUint64))
		t[e-pow10Min] = [2]uint64{new(big.Int).Rsh(m, 64).Uint64(), lo.Uint64()}
	}
	p, ten := big.NewInt(1), big.NewInt(10)
	for n := 0; n <= -pow10Min; n++ {
		if n <= pow10Max { // 10^n, shifted to 128 bits
			m := new(big.Int)
			if l := p.BitLen(); l > 128 {
				m.Rsh(p, uint(l-128))
			} else {
				m.Lsh(p, uint(128-l))
			}
			row(n, m)
		}
		if n > 0 { // ⌊2^k / 10^n⌋, k chosen so the quotient has 128 bits
			m := new(big.Int).Lsh(big.NewInt(1), uint(127+p.BitLen()))
			row(-n, m.Quo(m, p))
		}
		p.Mul(p, ten)
	}
	return t
})

// eiselLemire converts man·10^exp10, man ≠ 0, to the nearest float64. It
// reports false where the truncated 128-bit product cannot decide the
// rounding, and for a subnormal, zero or infinite result. The table is built
// with math/big on the first call (about 0.5 ms), not at init.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &pow10Table128()[exp10-pow10Min]
	// With man normalized to a set top bit, the product's binary exponent
	// follows from ⌊exp10·log₂10⌋ (log₂10 ≈ 217706/2¹⁶) and the shift.
	lz := bits.LeadingZeros64(man)
	man <<= uint(lz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(lz)

	hi, lo := bits.Mul64(man, pow[0])
	// Low bits of hi all ones with a possible carry out of lo: the table's
	// truncation may have cost the product a bit, so widen by the power's
	// low word and give up if even that cannot tell.
	if hi&0x1FF == 0x1FF && lo+man < man {
		whi, wlo := bits.Mul64(man, pow[1])
		mhi, mlo := hi, lo+whi
		if mlo < lo {
			mhi++
		}
		if mhi&0x1FF == 0x1FF && mlo+1 == 0 && wlo+man < man {
			return 0, false
		}
		hi, lo = mhi, mlo
	}

	// Keep 54 bits: the 53 of the result plus one to round on.
	top := hi >> 63
	m := hi >> (top + 9)
	exp2 -= 1 ^ top
	// Exactly halfway, with the even neighbour below: rounding up would be
	// wrong, and the product cannot prove it is not a tie.
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}
	m = (m + m&1) >> 1
	if m>>53 != 0 {
		m >>= 1
		exp2++
	}
	// exp2 ≤ 0 (subnormal or zero, wrapped) or ≥ 0x7FF (infinite).
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	u := exp2<<52 | m&(1<<52-1)
	if neg {
		u |= 1 << 63
	}
	return math.Float64frombits(u), true
}
