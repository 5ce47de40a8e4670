//go:build amd64 && !purego

package quant

// The dot kernels of kernels_amd64.s read exactly n ≥ 16 bytes behind every
// vector pointer and write only through out or rows, dotPanelAVX2 only its
// survivors' slots; the quantizer's read exactly the values of their rows
// and write exactly their codes and sums. Nothing needs alignment.

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

// screenBlockVNNI screens rows 0 … n−1 (n ≥ 1) of the panel of r-code rows
// for the four queries packed at qbuf (Block.packBlock): lane 4j+i of lim and
// cut holds query j's row limit and biased cut, for every i. Row i survives
// for query j when i < lim[4j] and Σ (p+128)·q ≥ cut[4j]; its number is
// written at out[j] + 4·cnt[j], and cnt[j] counted. Rows are read four at a
// time, the last group's missing rows as the panel's last row, whose lanes
// lie past every limit.
//
//go:noescape
func screenBlockVNNI(qbuf, panel *int8, r, n int, lim, cut *[16]int32, out *[4]*int32, cnt *[4]int)

// quantize4AVX2 quantizes the four rows of n ≥ 16 float64s at rows,
// rows + n, rows + 2n and rows + 3n at step scale (inv = 1/scale, finite)
// into the n codes at codes, codes + n, …, and stores row k's sums of
// (x − deq)², deq² and x − x at sums[k], sums[4+k] and sums[8+k]: the
// scalar loop of quantizeRow, four rows at a time.
//
//go:noescape
func quantize4AVX2(rows *float64, codes *int8, n int, scale, inv float64, sums *[12]float64)

// maxAbsAVX2 returns the largest finite |x| of the n float64s at v (n ≥ 8 a
// multiple of 8), 0 when there is none.
//
//go:noescape
func maxAbsAVX2(v *float64, n int) float64
