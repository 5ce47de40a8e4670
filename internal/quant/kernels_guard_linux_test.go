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
