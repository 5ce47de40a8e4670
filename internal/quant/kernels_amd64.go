//go:build amd64 && !purego

package quant

// The kernels of kernels_amd64.s read exactly n ≥ 16 bytes behind every
// vector pointer and write only through out or rows, dotPanelAVX2 only its
// survivors' slots. Nothing needs alignment.

//go:noescape
func dotAVX2(a, b *int8, n int) int32

// dot8AVX2 stores at out the dots of q with the eight rows of n codes at
// codes + rows[j]·n and returns dot8's survivor mask against cut.
//
//go:noescape
func dot8AVX2(q, codes *int8, rows *[8]int, n int, out *[8]int32, cut int32) uint8

// dotPanelAVX2 multiplies q with the 8·groups ≥ 8 contiguous rows of n codes
// starting at panel, writes the numbers of the rows whose dot is at least
// cut to rows in order and returns their count.
//
//go:noescape
func dotPanelAVX2(q, panel *int8, n, groups int, cut int32, rows *int32) int
