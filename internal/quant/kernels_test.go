package quant

import (
	"math"
	"math/rand"
	"slices"
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
	dot8  func(q, codes []int8, rows *[8]int, out *[8]int32, cut int32) uint8
	panel func(q, panel []int8, cut int32, rows []int32) int
}

// kernelSets is the dispatcher (assembly where the CPU has it) beside the
// portable Go code and the VNNI kernel's Go twin, and on a VNNI host the
// dispatcher held to the AVX2 tier, so that both assembly panel kernels stay
// tested where the VNNI one takes every prefix; with -tags purego every set
// but the twin runs the portable code.
var kernelSets = append([]kernelSet{
	{"dispatch", DotQ8, dot8, dispatchPanel},
	{"portable", dotGo, dot8Portable, screenPanelGo},
	{vnniTwin, dotGo, dot8Portable, func(q, panel []int8, cut int32, rows []int32) int {
		if len(q) > blockMaxDim { // where the biased sums could wrap, no VNNI kernel runs
			return screenPanelGo(q, panel, cut, rows)
		}
		return screenPanelVNNIGo(q, panel, biasCut(cut, codeSum(q)), rows)
	}},
}, avx2TierSet()...)

// vnniTwin names the set whose panel kernel is screenPanelVNNIGo.
const vnniTwin = "VNNI twin"

// avx2TierSet is, on a VNNI host, the dispatcher run under
// vecmath.LimitTier(TierAVX2): the AVX2 panel kernel the VNNI tier no longer
// reaches. Elsewhere the dispatcher already runs it and the set is empty.
func avx2TierSet() []kernelSet {
	if vecmath.HostTier() < vecmath.TierVNNI {
		return nil
	}
	return []kernelSet{{"AVX2 tier", DotQ8, dot8, func(q, panel []int8, cut int32, rows []int32) int {
		defer vecmath.LimitTier(vecmath.TierAVX2)()
		return dispatchPanel(q, panel, cut, rows)
	}}}
}

// codeSum is Σq, the Screen.sum of a query's codes.
func codeSum(q []int8) int32 {
	var sum int32
	for _, c := range q {
		sum += int32(c)
	}
	return sum
}

// dispatchPanel is screenPanel on raw codes, their sum counted as
// QuantizeQuery counts it.
func dispatchPanel(q, panel []int8, cut int32, rows []int32) int {
	return screenPanel(q, codeSum(q), panel, cut, rows)
}

// screenPanelVNNIGo is the one-query VNNI kernel's Go twin: it keeps row i
// when Σ (p+128)·q, the kernel's lane sum over the sign-flipped codes, is at
// least the biased cut, so it checks biasCut and the flip as well as the
// kernel's survivors.
func screenPanelVNNIGo(q, panel []int8, cut int32, rows []int32) int {
	r, k := len(q), 0
	for i := range rows {
		var s int32
		for j, c := range panel[i*r : (i+1)*r] {
			s += int32(uint8(c)^0x80) * int32(q[j])
		}
		if s >= cut {
			rows[k] = int32(i)
			k++
		}
	}
	return k
}

// dot8Portable is the portable dot8: the eight-row kernel, then mask8.
func dot8Portable(q, codes []int8, rows *[8]int, out *[8]int32, cut int32) uint8 {
	dot8Go(q, codes, rows, out)
	return mask8(out, cut)
}

// survivors is the oracle of the panel kernel: the rows whose dot is at
// least cut, in order.
func survivors(dots []int32, cut int32) []int32 {
	var keep []int32
	for i, d := range dots {
		if d >= cut {
			keep = append(keep, int32(i))
		}
	}
	return keep
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
// on scattered rows with a repeat. The panel kernel reports only survivors,
// so its dots are pinned through the cut: over all rows, row i must survive
// a cut of its own dot and fall to one above it, with every other row
// deciding as its oracle dot says.
func checkKernels(t *testing.T, ks kernelSet, q, panel []int8, rows int, rng *rand.Rand) {
	t.Helper()
	r := len(q)
	row := func(i int) []int8 { return panel[i*r : (i+1)*r : (i+1)*r] }
	want := make([]int32, rows)
	for i := range want {
		want[i] = plainDot(q, row(i))
	}
	out := make([]int32, rows+1)
	panelCase := func(n int, cut int32) {
		for i := range out {
			out[i] = -1
		}
		k := ks.panel(q, panel[:n*r], cut, out[:n])
		if w := survivors(want[:n], cut); !slices.Equal(out[:k], w) {
			t.Fatalf("%s r=%d: panel of %d rows at cut %d kept %v, want %v", ks.name, r, n, cut, out[:k], w)
		}
		if out[n] != -1 || (k < n && out[k] != -1) {
			t.Fatalf("%s r=%d: panel of %d rows wrote past its survivors", ks.name, r, n)
		}
	}
	for n := 0; n <= rows; n++ {
		panelCase(n, math.MinInt32)
		if n > 0 {
			panelCase(n, want[rng.Intn(n)])
		}
	}
	for i := 0; i < rows; i++ {
		panelCase(rows, want[i])
		panelCase(rows, want[i]+1)
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
	for _, cut := range []int32{math.MinInt32, want[p[1]], want[p[1]] + 1, math.MaxInt32} {
		var o8 [8]int32
		mask := ks.dot8(q, panel, &p, &o8, cut)
		for j, v := range o8 {
			if v != want[p[j]] {
				t.Fatalf("%s r=%d: eight-pointer kernel output %d (row %d) = %d, want %d", ks.name, r, j, p[j], v, want[p[j]])
			}
			if got := mask>>j&1 == 1; got != (v >= cut) {
				t.Fatalf("%s r=%d: eight-pointer kernel at cut %d, mask %08b for dots %v", ks.name, r, cut, mask, o8)
			}
		}
	}
}

// TestKernelsMatchPlainLoop runs the panel, eight-pointer and one-row
// kernels, through the dispatcher and directly on the portable code, against
// the plain int32 loop: r = 0..130 covers empty, narrower than one chunk
// (the rows that never leave Go), every tail length and many chunk counts;
// 37 rows take the VNNI panel kernel through two groups of sixteen and a
// partial one, the AVX2 kernel through four groups of eight and every tail;
// for the assembly sets the panel starts at every offset within a 16-byte
// chunk. The portable set and the VNNI twin are Go loops, which no offset
// changes: they run at offset 0 only.
func TestKernelsMatchPlainLoop(t *testing.T) {
	t.Logf("assembly kernels in use: %v (panel kernel at r=50: %s)", vecmath.AVX2(), panelKernel(50))
	const rows = 37
	rng := rand.New(rand.NewSource(17))
	for _, fc := range codeFills {
		for r := 0; r <= 130; r++ {
			for off := 0; off < 16; off++ {
				q := offset16(r, (off+5)%16)
				panel := offset16(rows*r, off)
				fc.fill(rng, q, panel)
				for _, ks := range kernelSets {
					if (ks.name == "portable" || ks.name == vnniTwin) && off > 0 {
						continue // Go loops, which no offset changes
					}
					checkKernels(t, ks, q, panel, rows, rng)
				}
			}
		}
	}
}

// TestKernelsAtMaxDim is the accumulator bound: saturated codes at the
// widest row each panel kernel takes, where the int32 lanes and totals come
// closest to overflow. At MaxDim (127²·MaxDim is just below 2³¹) a nine-row
// panel runs the AVX2 group of eight and its one-row tail; at blockMaxDim,
// where the VNNI kernel's biased sums reach 255·127·r, within 2 % of the
// int32 range, 17 rows run its group of sixteen and a one-row last group.
// Every third row has its signs flipped, so one panel holds dots at both
// extremes. The int32 reference is itself checked against the 64-bit value
// first.
func TestKernelsAtMaxDim(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, size := range []struct{ r, rows int }{{MaxDim, 9}, {blockMaxDim, 17}} {
		r := size.r
		q := make([]int8, r)
		panel := make([]int8, size.rows*r)
		for _, c := range []struct{ sign, fill int }{{+1, 1}, {-1, 2}} {
			codeFills[c.fill].fill(rng, q, panel)
			for i := r; i < len(panel); i += 3 * r {
				for j := range panel[i : i+r] {
					panel[i+j] = -panel[i+j]
				}
			}
			if got, want := int64(plainDot(q, panel[:r])), int64(c.sign)*127*127*int64(r); got != want {
				t.Fatalf("r=%d: reference at saturation = %d, want %d: the row overflows int32", r, got, want)
			}
			for _, ks := range kernelSets {
				checkKernels(t, ks, q, panel, size.rows, rng)
			}
		}
	}
}
