//go:build linux

package vecmath

import (
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardedTail maps fresh memory ending in an unreadable page and returns the
// last n float64 in front of it: element n-1 is flush against the guard, so a
// load that reaches one byte past the vector faults.
func guardedTail(t *testing.T, n int) []float64 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n*8+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	data := mem[size-page-n*8 : size-page]
	return unsafe.Slice((*float64)(unsafe.Pointer(&data[0])), n)
}

// TestKernelsStayInsideTheirVectors puts, in turn, the query, the last row
// of a panel and each of eight strided rows flush against an unreadable
// page. A kernel whose block or tail loop over-reads, even by a lane it
// would discard, faults here instead of passing; the values are checked too,
// so a kernel cannot pass by reading short.
func TestKernelsStayInsideTheirVectors(t *testing.T) {
	// A fault becomes a panic naming the address rather than a dead test
	// binary.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	const rows = 13
	for r := 1; r <= 70; r++ {
		heapQ := make([]float64, r)
		edgeQ := guardedTail(t, r)
		panel := guardedTail(t, rows*r)
		for i := range panel {
			panel[i] = float64(i%17) - 8
		}
		for i := range heapQ {
			heapQ[i] = float64(i%5) - 2
		}
		copy(edgeQ, heapQ)
		row := func(i int) []float64 { return panel[i*r : (i+1)*r : (i+1)*r] }
		last := row(rows - 1)
		want := make([]float64, rows)
		for i := range want {
			want[i] = refDot(heapQ, row(i))
		}
		for _, q := range [][]float64{heapQ, edgeQ} {
			out := make([]float64, rows)
			for _, batch := range []func(q, panel, out []float64){DotBatch, dotBatchGo} {
				for n := 1; n <= rows; n++ { // the panel's last n rows: each step of DotBatch ends at the guard
					clear(out)
					batch(q, panel[(rows-n)*r:], out[:n])
					for i := 0; i < n; i++ {
						if !sameFloat(out[i], want[rows-n+i]) {
							t.Fatalf("r=%d: panel of %d rows at the guard, row %d = %g, want %g", r, n, i, out[i], want[rows-n+i])
						}
					}
				}
			}
			if got := Dot(q, last); !sameFloat(got, want[rows-1]) {
				t.Fatalf("r=%d: Dot at the guard = %g, want %g", r, got, want[rows-1])
			}
			if got := Dot(last, q); !sameFloat(got, want[rows-1]) {
				t.Fatalf("r=%d: Dot at the guard (first operand) = %g, want %g", r, got, want[rows-1])
			}
			if got, _ := DotNorm2(q, last); !sameFloat(got, want[rows-1]) {
				t.Fatalf("r=%d: DotNorm2 at the guard = %g, want %g", r, got, want[rows-1])
			}
			// The guarded row in each of the eight (four) positions.
			for j := 0; j < 8; j++ {
				p := [8]int{0, 1, 2, 3, 4, 5, 6, 7}
				p[j] = rows - 1
				var o8 [8]float64
				Dot8(q, row(p[0]), row(p[1]), row(p[2]), row(p[3]), row(p[4]), row(p[5]), row(p[6]), row(p[7]), &o8)
				for k, v := range o8 {
					if !sameFloat(v, want[p[k]]) {
						t.Fatalf("r=%d: Dot8 with the guarded row in position %d, output %d = %g, want %g", r, j, k, v, want[p[k]])
					}
				}
				if j < 4 {
					var o4 [4]float64
					Dot4(q, row(p[0]), row(p[1]), row(p[2]), row(p[3]), &o4)
					for k, v := range o4 {
						if !sameFloat(v, want[p[k]]) {
							t.Fatalf("r=%d: Dot4 with the guarded row in position %d, output %d = %g, want %g", r, j, k, v, want[p[k]])
						}
					}
				}
			}
		}
	}
}
