//go:build linux

package quant

import (
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"syscall"
	"testing"
	"unsafe"

	"lemp/internal/vecmath"
)

// guardedTail maps fresh memory ending in an unreadable page and returns the
// last n bytes in front of it as codes: element n-1 is flush against the
// guard, so a load that reaches one byte past the vector faults.
func guardedTail(t *testing.T, n int) []int8 {
	t.Helper()
	b := guardedBytes(t, n)
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&b[0])), n)
}

// guardedInt32s is guardedTail for n ≥ 1 int32 values.
func guardedInt32s(t *testing.T, n int) []int32 {
	t.Helper()
	b := guardedBytes(t, 4*n)
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
}

// guardedBytes returns the last n bytes in front of an unreadable page.
func guardedBytes(t *testing.T, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return mem[size-page-n : size-page]
}

// TestKernelsStayInsideTheirVectors puts, in turn, the query, the last row
// of a panel and each of eight strided rows flush against an unreadable
// page, for r up to 130: four 32-byte chunks and every tail, whose last
// chunk loads q[r−32:r] and the row's final 32 bytes. A kernel whose chunk
// loop or overlapping last chunk over-reads, even by a lane it would mask,
// faults here instead of passing; the values are checked too, so a kernel
// cannot pass by reading short. The panel kernel writes its survivors into
// an output flush against a guard as well, under a cut every row survives,
// so it writes no slot past the rows it decides.
func TestKernelsStayInsideTheirVectors(t *testing.T) {
	// A fault becomes a panic naming the address rather than a dead test
	// binary.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	const rows = 13
	rng := rand.New(rand.NewSource(19))
	for r := 1; r <= 130; r++ {
		heapQ := make([]int8, r)
		edgeQ := guardedTail(t, r)
		panel := guardedTail(t, rows*r)
		codeFills[0].fill(rng, heapQ, panel)
		copy(edgeQ, heapQ)
		out := guardedInt32s(t, rows)
		row := func(i int) []int8 { return panel[i*r : (i+1)*r : (i+1)*r] }
		last := row(rows - 1)
		want := make([]int32, rows)
		for i := range want {
			want[i] = plainDot(heapQ, row(i))
		}
		for _, q := range [][]int8{heapQ, edgeQ} {
			for _, ks := range kernelSets {
				for n := 1; n <= rows; n++ { // the panel's last n rows: each step of the panel kernel ends at the guard
					kept := out[rows-n:]
					if k := ks.panel(q, panel[(rows-n)*r:], math.MinInt32, kept); k != n {
						t.Fatalf("%s r=%d: panel of %d rows at the guard kept %d under a cut every row survives", ks.name, r, n, k)
					}
					for i := range kept {
						if kept[i] != int32(i) {
							t.Fatalf("%s r=%d: panel of %d rows at the guard kept %v", ks.name, r, n, kept)
						}
					}
					// The cut at row i's dot keeps exactly the rows at or above it.
					for i := 0; i < n; i++ {
						cut := want[rows-n+i]
						k := ks.panel(q, panel[(rows-n)*r:], cut, kept)
						var w []int32
						for j := 0; j < n; j++ {
							if want[rows-n+j] >= cut {
								w = append(w, int32(j))
							}
						}
						if !slices.Equal(kept[:k], w) {
							t.Fatalf("%s r=%d: panel of %d rows at the guard, cut %d kept %v, want %v", ks.name, r, n, cut, kept[:k], w)
						}
					}
				}
				if got := ks.dot(q, last); got != want[rows-1] {
					t.Fatalf("%s r=%d: one-row kernel at the guard = %d, want %d", ks.name, r, got, want[rows-1])
				}
				if got := ks.dot(last, q); got != want[rows-1] {
					t.Fatalf("%s r=%d: one-row kernel at the guard (first operand) = %d, want %d", ks.name, r, got, want[rows-1])
				}
				// The guarded row in each of the eight positions.
				for j := 0; j < 8; j++ {
					p := [8]int{0, 1, 2, 3, 4, 5, 6, 7}
					p[j] = rows - 1
					var o8 [8]int32
					ks.dot8(q, panel, &p, &o8, math.MinInt32)
					for k, v := range o8 {
						if v != want[p[k]] {
							t.Fatalf("%s r=%d: eight-pointer kernel with the guarded row in position %d, output %d = %d, want %d", ks.name, r, j, k, v, want[p[k]])
						}
					}
				}
			}
		}
	}
}

// guardedFloat64s is guardedTail for n ≥ 1 float64 values.
func guardedFloat64s(t *testing.T, n int) []float64 {
	t.Helper()
	b := guardedBytes(t, 8*n)
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
}

// TestQuantizerStaysInsideItsRows puts a panel's last row and its last code
// flush against an unreadable page, for r up to 70 (every r mod 4 of the
// four-row kernel's last coordinates) and panels of 4 to 9 rows (the last
// row in a kernel pass, and in the rows left to Go): a kernel whose chunk
// loop or last coordinates load a value past the rows, or store a code past
// the codes, faults here instead of passing. The codes and bounds are
// checked against the reference, and maxAbs, whose vector loop ends at the
// guard where the panel holds a multiple of eight values, against its loop.
func TestQuantizerStaysInsideItsRows(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(51))
	for r := 1; r <= 70; r++ {
		for n := 4; n <= 9; n++ {
			rows := guardedFloat64s(t, n*r)
			for i := range n {
				fillRow(rng, rows[i*r:(i+1)*r], 1)
			}
			got := guardedTail(t, n*r)
			want := make([]int8, n*r)
			scale := maxAbsReference(rows) / 127
			gr, gn := quantizePanel(got, rows, r, scale)
			wr, wn := quantizePanelReference(want, rows, r, scale)
			comparePanels(t, "at the guard", r, n, scale, got, want, gr, gn, wr, wn, rows)
			if m := maxAbs(rows); math.Float64bits(m) != math.Float64bits(maxAbsReference(rows)) {
				t.Fatalf("r=%d n=%d: maxAbs at the guard = %v, reference %v", r, n, m, maxAbsReference(rows))
			}
		}
	}
}

// TestBlockStaysInsideItsRows puts the last row of a panel flush against an
// unreadable page, and each query's codes and survivor output against
// others, for r up to 130 and every panel of 1 to 13 rows ending at the
// guard: the block kernel's masked last chunk and its last group, whose
// missing rows it reads as the panel's last, must not load a byte past the
// panel, and a cut every row survives must write exactly each query's
// prefix. Four queries with four prefix lengths run through Block.Run (the
// block kernel on a VNNI host, the one-query kernels elsewhere) and, on a
// VNNI host, the kernel alone over the longest prefix.
func TestBlockStaysInsideItsRows(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	const rows = 13
	rng := rand.New(rand.NewSource(59))
	for r := 1; r <= 130; r++ {
		panel := guardedTail(t, rows*r)
		qs := make([][]int8, 4)
		for j := range qs {
			qs[j] = guardedTail(t, r)
			codeFills[0].fill(rng, qs[j], panel)
		}
		for n := 1; n <= rows; n++ {
			sub := panel[(rows-n)*r:]
			prefixes := []int{n, max(n-1, 0), n, n / 2}
			for _, cut := range []int32{keepAll, 0} {
				b := newBlock(sub, r, qs, prefixes, []int32{cut, cut, cut, cut})
				var out [4][]int32
				for j := range out {
					out[j] = guardedInt32s(t, max(prefixes[j], 1))[:prefixes[j]]
				}
				want := blockOut(n)
				kw := screenBlockGo(b, want)
				check := func(how string, k [4]int) {
					t.Helper()
					for j := range k {
						if !slices.Equal(out[j][:k[j]], want[j][:kw[j]]) {
							t.Fatalf("r=%d, %d rows at the guard, cut %d, %s: query %d kept %v, want %v", r, n, cut, how, j, out[j][:k[j]], want[j][:kw[j]])
						}
					}
				}
				check("Run", b.Run(&out))
				if vecmath.VNNI() {
					check("kernel", b.runKernel(n, &out))
				}
			}
		}
	}
}
