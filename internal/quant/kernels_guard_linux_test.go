//go:build linux

package quant

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardedTail maps fresh memory ending in an unreadable page and returns the
// last n bytes in front of it as codes: element n-1 is flush against the
// guard, so a load that reaches one byte past the vector faults.
func guardedTail(t *testing.T, n int) []int8 {
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
	if n == 0 {
		return nil
	}
	data := mem[size-page-n : size-page]
	return unsafe.Slice((*int8)(unsafe.Pointer(&data[0])), n)
}

// TestKernelsStayInsideTheirVectors puts, in turn, the query, the last row
// of a panel and each of eight strided rows flush against an unreadable
// page. A kernel whose chunk loop or overlapping last chunk over-reads, even
// by a lane it would mask, faults here instead of passing; the values are
// checked too, so a kernel cannot pass by reading short.
func TestKernelsStayInsideTheirVectors(t *testing.T) {
	// A fault becomes a panic naming the address rather than a dead test
	// binary.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	const rows = 13
	rng := rand.New(rand.NewSource(19))
	for r := 1; r <= 70; r++ {
		heapQ := make([]int8, r)
		edgeQ := guardedTail(t, r)
		panel := guardedTail(t, rows*r)
		codeFills[0].fill(rng, heapQ, panel)
		copy(edgeQ, heapQ)
		row := func(i int) []int8 { return panel[i*r : (i+1)*r : (i+1)*r] }
		last := row(rows - 1)
		want := make([]int32, rows)
		for i := range want {
			want[i] = plainDot(heapQ, row(i))
		}
		for _, q := range [][]int8{heapQ, edgeQ} {
			for _, ks := range kernelSets {
				out := make([]int32, rows)
				for n := 1; n <= rows; n++ { // the panel's last n rows: each step of the panel kernel ends at the guard
					clear(out)
					ks.panel(q, panel[(rows-n)*r:], out[:n])
					for i := 0; i < n; i++ {
						if out[i] != want[rows-n+i] {
							t.Fatalf("%s r=%d: panel of %d rows at the guard, row %d = %d, want %d", ks.name, r, n, i, out[i], want[rows-n+i])
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
					ks.dot8(q, panel, &p, &o8)
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
