package quant

import (
	"math/rand"
	"testing"
	"unsafe"

	"lemp/internal/vecmath"
)

// plainDot is the reference every kernel must reproduce exactly.
func plainDot(a, b []int8) int32 {
	var s int32
	for i := range a {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

// kernelSet is one implementation of the three kernel shapes.
type kernelSet struct {
	name  string
	dot   func(a, b []int8) int32
	dot8  func(q, codes []int8, rows *[8]int, out *[8]int32)
	panel func(q, panel []int8, out []int32)
}

// kernelSets is the dispatcher (assembly where the CPU has it) beside the
// portable Go code; with -tags purego both run the portable code.
var kernelSets = []kernelSet{
	{"dispatch", DotQ8, dot8, dotPanel},
	{"portable", dotGo, dot8Go, dotPanelGo},
}

// offset16 returns n codes that start off bytes past a 16-byte boundary.
func offset16(n, off int) []int8 {
	buf := make([]int8, n+32)
	al := int(-uintptr(unsafe.Pointer(&buf[0])) & 15)
	return buf[al+off : al+off+n : al+off+n]
}

// codeFills are the code patterns the kernel tests sweep. Saturated codes
// in every lane are where VPMADDWD's pair sums and the int32 lanes run
// largest; the two signs exercise both extremes.
var codeFills = []struct {
	name string
	fill func(rng *rand.Rand, q, panel []int8)
}{
	{"uniform", func(rng *rand.Rand, q, panel []int8) {
		for i := range q {
			q[i] = int8(rng.Intn(255) - 127)
		}
		for i := range panel {
			panel[i] = int8(rng.Intn(255) - 127)
		}
	}},
	{"saturated", func(_ *rand.Rand, q, panel []int8) {
		for i := range q {
			q[i] = 127
		}
		for i := range panel {
			panel[i] = 127
		}
	}},
	{"saturated, opposite signs", func(_ *rand.Rand, q, panel []int8) {
		for i := range q {
			q[i] = -127
		}
		for i := range panel {
			panel[i] = 127
		}
	}},
	{"saturated, random signs", func(rng *rand.Rand, q, panel []int8) {
		for i := range q {
			q[i] = int8(127 - 254*rng.Intn(2))
		}
		for i := range panel {
			panel[i] = int8(127 - 254*rng.Intn(2))
		}
	}},
}

// checkKernels runs one (query, panel of rows) case through a kernel set:
// the panel kernel over every row count 0..rows (groups of eight and every
// tail length), the one-row kernel on every row, the eight-pointer kernel
// on scattered rows with a repeat.
func checkKernels(t *testing.T, ks kernelSet, q, panel []int8, rows int, rng *rand.Rand) {
	t.Helper()
	r := len(q)
	row := func(i int) []int8 { return panel[i*r : (i+1)*r : (i+1)*r] }
	want := make([]int32, rows)
	for i := range want {
		want[i] = plainDot(q, row(i))
	}
	out := make([]int32, rows)
	for n := 0; n <= rows; n++ {
		for i := range out {
			out[i] = -1
		}
		ks.panel(q, panel[:n*r], out[:n])
		for i := 0; i < n; i++ {
			if out[i] != want[i] {
				t.Fatalf("%s r=%d: panel of %d rows, row %d = %d, want %d", ks.name, r, n, i, out[i], want[i])
			}
		}
		if n < rows && out[n] != -1 {
			t.Fatalf("%s r=%d: panel of %d rows wrote past its output", ks.name, r, n)
		}
	}
	for i := 0; i < rows; i++ {
		if got := ks.dot(q, row(i)); got != want[i] {
			t.Fatalf("%s r=%d: one-row kernel on row %d = %d, want %d", ks.name, r, i, got, want[i])
		}
	}
	if rows == 0 {
		return
	}
	var p [8]int
	for j := range p {
		p[j] = rng.Intn(rows)
	}
	p[7] = p[0]
	var o8 [8]int32
	ks.dot8(q, panel, &p, &o8)
	for j, v := range o8 {
		if v != want[p[j]] {
			t.Fatalf("%s r=%d: eight-pointer kernel output %d (row %d) = %d, want %d", ks.name, r, j, p[j], v, want[p[j]])
		}
	}
}

// TestKernelsMatchPlainLoop runs the panel, eight-pointer and one-row
// kernels, through the dispatcher and directly on the portable code, against
// the plain int32 loop: r = 0..130 covers empty, narrower than one chunk
// (the rows that never leave Go), every tail length and many chunk counts;
// 20 rows take the panel kernel through two groups of eight and every tail;
// the panel starts at every offset within a 16-byte chunk.
func TestKernelsMatchPlainLoop(t *testing.T) {
	t.Logf("assembly kernels in use: %v", vecmath.AVX2())
	const rows = 20
	rng := rand.New(rand.NewSource(17))
	for _, fc := range codeFills {
		for r := 0; r <= 130; r++ {
			for off := 0; off < 16; off++ {
				q := offset16(r, (off+5)%16)
				panel := offset16(rows*r, off)
				fc.fill(rng, q, panel)
				for _, ks := range kernelSets {
					checkKernels(t, ks, q, panel, rows, rng)
				}
			}
		}
	}
}

// TestKernelsAtMaxDim is the accumulator bound: saturated codes at the
// widest supported row, where each int32 lane and the total come closest to
// overflow (127²·MaxDim is just below 2³¹), in a nine-row panel so the group
// of eight and the one-row tail both run. The int32 reference is itself
// checked against the 64-bit value first.
func TestKernelsAtMaxDim(t *testing.T) {
	const rows = 9
	q := make([]int8, MaxDim)
	panel := make([]int8, rows*MaxDim)
	rng := rand.New(rand.NewSource(18))
	for _, c := range []struct{ sign, fill int }{{+1, 1}, {-1, 2}} {
		codeFills[c.fill].fill(rng, q, panel)
		if got, want := int64(plainDot(q, panel[:MaxDim])), int64(c.sign)*127*127*MaxDim; got != want {
			t.Fatalf("reference at saturation = %d, want %d: MaxDim overflows int32", got, want)
		}
		for _, ks := range kernelSets {
			checkKernels(t, ks, q, panel, rows, rng)
		}
	}
}
