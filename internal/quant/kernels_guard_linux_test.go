//go:build linux

package quant

import (
	"math"
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
	b := guardedBytes(t, n)
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&b[0])), n)
}

// guardedFloats is guardedTail for n ≥ 1 float64 values.
func guardedFloats(t *testing.T, n int) []float64 {
	t.Helper()
	b := guardedBytes(t, 8*n)
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
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
// cannot pass by reading short. The panel's predicate runs with the scales
// and lengths flush against guards as well, so it reads no entry past the
// rows it decides.
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
		// NaN scales: every row survives, whatever its dot.
		scales := guardedFloats(t, rows)
		for i := range scales {
			scales[i] = math.NaN()
		}
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
				for n := 1; n <= rows; n++ { // the predicate over the panel's last n rows
					qr := &Rows{r: r, n: n, Scales: scales[rows-n:], Codes: panel[(rows-n)*r:]}
					scr := Screen{qr: qr, codes: q, qs: 1}
					dots, kept := make([]int32, n), make([]int32, n)
					if k := ks.prefix(&scr, n, 0, dots, kept); k != n {
						t.Fatalf("%s r=%d: predicate at the guard kept %d of %d rows that all survive", ks.name, r, k, n)
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
