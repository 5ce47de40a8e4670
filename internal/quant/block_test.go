package quant

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lemp/internal/vecmath"
)

// blockDims are the row dimensions the block tests sweep: below, at and
// around the 16- and 32-byte chunk widths, two chunks with and without a
// tail, and several chunks with a ragged one.
var blockDims = []int{1, 15, 16, 31, 32, 33, 50, 64, 65, 200}

// screenBlockGo is the block kernel's portable twin and oracle: for each
// queued query, the rows of its prefix whose exact dot (dotGo) is at least
// its integer cut, in order.
func screenBlockGo(b *Block, rows *[4][]int32) (k [4]int) {
	r := b.qr.r
	for j := range b.m {
		for i := range b.n[j] {
			if dotGo(b.scr[j].codes, b.qr.Codes[i*r:(i+1)*r]) >= b.cut[j] {
				rows[j][k[j]] = int32(i)
				k[j]++
			}
		}
	}
	return k
}

// newBlock queues the given queries against panel with integer cuts, as
// Block.Add would after intCut.
func newBlock(panel []int8, r int, qs [][]int8, n []int, cuts []int32) *Block {
	qr := &Rows{r: r, n: len(panel) / r, Codes: panel}
	b := &Block{qr: qr, m: len(qs)}
	for j, q := range qs {
		var sum int32
		for _, c := range q {
			sum += int32(c)
		}
		b.scr[j] = Screen{qr: qr, codes: q, sum: sum}
		b.n[j], b.cut[j] = n[j], cuts[j]
	}
	return b
}

// blockOut returns four survivor buffers of rows elements each.
func blockOut(rows int) *[4][]int32 {
	var out [4][]int32
	for j := range out {
		out[j] = make([]int32, rows)
	}
	return &out
}

// checkBlock runs one block through the dispatcher (Block.Run) and, on a
// VNNI host, through the kernel alone over the longest prefix (so every
// query's own limit masks rows inside the kernel's range), and holds both
// to screenBlockGo and screenBlockGo to plainDot.
func checkBlock(t *testing.T, name string, b *Block) {
	t.Helper()
	rows := b.qr.n
	want := blockOut(rows)
	k := screenBlockGo(b, want)
	for j := range b.m {
		var oracle []int32
		for i := range b.n[j] {
			if plainDot(b.scr[j].codes, b.qr.Row(i)) >= b.cut[j] {
				oracle = append(oracle, int32(i))
			}
		}
		if !slices.Equal(want[j][:k[j]], oracle) {
			t.Fatalf("%s query %d: Go twin kept %v, oracle %v", name, j, want[j][:k[j]], oracle)
		}
	}
	compare := func(how string, got *[4][]int32, gk [4]int) {
		t.Helper()
		for j := range b.m {
			if !slices.Equal(got[j][:gk[j]], want[j][:k[j]]) {
				t.Fatalf("%s, %s, query %d (prefix %d, cut %d): kept %v, want %v", name, how, j, b.n[j], b.cut[j], got[j][:gk[j]], want[j][:k[j]])
			}
		}
		for j := b.m; j < 4; j++ {
			if gk[j] != 0 {
				t.Fatalf("%s, %s: absent query %d kept %d rows", name, how, j, gk[j])
			}
		}
	}
	got := blockOut(rows)
	compare("Run", got, b.Run(got))
	if vecmath.VNNI() && b.m > 0 && b.qr.r <= blockMaxDim {
		n := slices.Max(b.n[:b.m])
		if n > 0 {
			got = blockOut(rows)
			compare("kernel", got, b.runKernel(n, got))
		}
	}
}

// TestBlockMatchesOneQueryScreens holds the block screen to its Go twin and
// the twin to plainDot per (row, query), for one to four queries with a
// different prefix per query, cuts that keep or drop every row, cuts at a
// row's own dot and one above it, over every code fill and the block
// dimensions.
func TestBlockMatchesOneQueryScreens(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const rows = 23 // five groups of four and a ragged one
	for _, r := range blockDims {
		for _, fill := range codeFills {
			panel := make([]int8, rows*r)
			qs := make([][]int8, 4)
			for j := range qs {
				qs[j] = make([]int8, r)
				fill.fill(rng, qs[j], panel)
			}
			for m := 1; m <= 4; m++ {
				for trial := range 12 {
					n := make([]int, m)
					cuts := make([]int32, m)
					for j := range n {
						n[j] = rng.Intn(rows + 1)
						switch trial % 4 {
						case 0:
							cuts[j] = keepAll
						case 1:
							cuts[j] = dropAll
						default:
							at := rng.Intn(rows)
							cuts[j] = plainDot(qs[j], panel[at*r:(at+1)*r]) + int32(trial%4-2)
						}
					}
					if trial == 11 {
						for j := range n {
							n[j] = rows // every prefix whole
						}
					}
					checkBlock(t, fmt.Sprintf("r=%d %s m=%d n=%v", r, fill.name, m, n), newBlock(panel, r, qs[:m], n, cuts))
				}
			}
		}
	}
}

// TestBlockAtWidestRow runs saturated codes of both signs at blockMaxDim,
// the widest row the block kernel takes, where its biased partial sums come
// within 2 % of the int32 range: every dot must still be exact, which the
// cuts at ±1 around it pin.
func TestBlockAtWidestRow(t *testing.T) {
	const r, rows = blockMaxDim, 5
	panel := make([]int8, rows*r)
	for i := range panel {
		panel[i] = 127
		if i/r%2 == 1 {
			panel[i] = -127
		}
	}
	up, down := make([]int8, r), make([]int8, r)
	for i := range up {
		up[i], down[i] = 127, -127
	}
	full := 127 * 127 * int32(r)
	for _, c := range []int32{full - 1, full, full + 1, -full - 1, -full, -full + 1, keepAll, dropAll} {
		b := newBlock(panel, r, [][]int8{up, down, up, down}, []int{rows, rows, 3, 4}, []int32{c, c, c, c})
		checkBlock(t, fmt.Sprintf("cut %d", c), b)
	}
}

// TestBlockAdd checks that Add turns the float cut into Prefix's integer cut
// and that a queued block screens as one Prefix call per screen does.
func TestBlockAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	const r, rows = 50, 40
	p := make([]float64, rows*r)
	for i := range p {
		p[i] = rng.NormFloat64()
	}
	qr := QuantizeRows(p, r)
	var b Block
	var screens [4]Screen
	var cuts [4]float64
	for j := range screens {
		q := make([]float64, r)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		qq, ok := QuantizeQuery(make([]int8, r), q)
		if !ok {
			t.Fatal("query did not quantize")
		}
		screens[j] = qr.NewScreen(qq, 1)
		cuts[j] = float64(j) - 1
		if full := b.Add(screens[j], rows-7*j, cuts[j]); full != (j == 3) {
			t.Fatalf("Add %d reported full=%v", j, full)
		}
	}
	got := blockOut(rows)
	k := b.Run(got)
	for j := range screens {
		want := make([]int32, rows)
		kw := screens[j].Prefix(rows-7*j, cuts[j], want)
		if !slices.Equal(got[j][:k[j]], want[:kw]) {
			t.Fatalf("screen %d: block kept %v, Prefix %v", j, got[j][:k[j]], want[:kw])
		}
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset left screens queued")
	}
}

// TestKernelTier names the kernel tier this process runs, so that a CI
// runner without AVX-512 VNNI shows in a verbose log, and checks that
// vecmath.LimitTier takes the block screen down to the one-query kernels and
// back.
func TestKernelTier(t *testing.T) {
	t.Logf("kernel tier: %s (block kernel at r=50: %v)", vecmath.Kernels(), blockKernel(50))
	if vecmath.HostTier() < vecmath.TierVNNI {
		t.Log("no AVX-512 VNNI here: the block kernel's own cases are skipped, Block runs the one-query kernels")
	}
	for tier := vecmath.TierPortable; tier <= vecmath.HostTier(); tier++ {
		restore := vecmath.LimitTier(tier)
		if blockKernel(50) != (tier == vecmath.TierVNNI) || Accelerated(50) != (tier >= vecmath.TierAVX2) {
			restore()
			t.Fatalf("tier %d: blockKernel %v, Accelerated %v", tier, blockKernel(50), Accelerated(50))
		}
		restore()
	}
	if vecmath.Kernels() == "portable" && vecmath.HostTier() != vecmath.TierPortable {
		t.Fatal("LimitTier's restore left the portable tier in place")
	}
}

// FuzzBlockKernel holds the block screen to its Go twin on any codes,
// dimension, query count, prefixes and cuts.
func FuzzBlockKernel(f *testing.F) {
	f.Add([]byte{50, 3, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{33, 4, 255, 255, 255, 255, 0x80, 0x7f, 1, 0x81})
	f.Add([]byte{200, 2, 17, 4, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		r := int(data[0])%blockDims[len(blockDims)-1] + 1
		m := int(data[1])%4 + 1
		rows := int(data[2])%40 + 1
		seed := int64(binary.LittleEndian.Uint16(data[2:4]))
		rng := rand.New(rand.NewSource(seed))
		codes := data[4:]
		at := 0
		next := func() int8 {
			if len(codes) == 0 {
				return int8(rng.Intn(255) - 127)
			}
			c := int8(codes[at%len(codes)])
			at++
			if c == -128 {
				c = -127
			}
			return c
		}
		panel := make([]int8, rows*r)
		for i := range panel {
			panel[i] = next()
		}
		qs := make([][]int8, m)
		n := make([]int, m)
		cuts := make([]int32, m)
		for j := range qs {
			qs[j] = make([]int8, r)
			for i := range qs[j] {
				qs[j][i] = next()
			}
			n[j] = rng.Intn(rows + 1)
			switch rng.Intn(4) {
			case 0:
				cuts[j] = keepAll
			case 1:
				cuts[j] = dropAll
			default:
				row := rng.Intn(rows)
				cuts[j] = plainDot(qs[j], panel[row*r:(row+1)*r]) + int32(rng.Intn(3)-1)
			}
		}
		checkBlock(t, fmt.Sprintf("r=%d m=%d n=%v", r, m, n), newBlock(panel, r, qs, n, cuts))
	})
}
