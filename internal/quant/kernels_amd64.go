//go:build amd64 && !purego

package quant

// The kernels of kernels_amd64.s read exactly n ≥ 16 bytes behind every
// vector pointer and write only through out. The vectors need no alignment.

//go:noescape
func dotAVX2(a, b *int8, n int) int32

//go:noescape
func dot8AVX2(q, p0, p1, p2, p3, p4, p5, p6, p7 *int8, n int, out *[8]int32)

// dotPanelAVX2 multiplies q with the rows ≥ 1 contiguous rows of n codes
// starting at panel and stores their sums at out.
//
//go:noescape
func dotPanelAVX2(q, panel *int8, n, rows int, out *int32)
