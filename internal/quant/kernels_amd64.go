//go:build amd64 && !purego

package quant

// The dot kernels of kernels_amd64.s read exactly n ≥ 16 bytes behind every
// vector pointer and write only through out; siftAVX2 reads eight entries
// per group of dots and scales and writes only through dots and rows.
// Nothing needs alignment.

//go:noescape
func dotAVX2(a, b *int8, n int) int32

// dot8AVX2 stores at out the dots of q with the eight rows of n codes at
// codes + rows[j]·n and, unless scales is nil, returns the survivor mask of
// Screen8 over them: row j's scale is scales[rows[j]].
//
//go:noescape
func dot8AVX2(q, codes *int8, rows *[8]int, n int, out *[8]int32, scales *float64, qs, resid, cut float64) uint8

// dotPanelAVX2 multiplies q with the 8·groups ≥ 8 contiguous rows of n codes
// starting at panel and stores their sums at out.
//
//go:noescape
func dotPanelAVX2(q, panel *int8, n, groups int, out *int32)

// siftAVX2 is siftPrefix over the first n rows, n a positive multiple of 8:
// it compacts the survivors' row numbers to rows and their dots to the front
// of dots, and returns their count.
//
//go:noescape
func siftAVX2(dots *int32, scales *float64, n int, qs, resid, cut float64, rows *int32) int
