package quant

import "math"

// Block is up to four prefix screens of one panel, run as one pass: where
// the block kernel runs (blockKernel), each row chunk is loaded once and
// multiplied into every queued query, where one Prefix call per query would
// load it once per query. Every query keeps its own prefix length and its
// own integer cut, so a query's survivors are exactly those its Prefix call
// would write. A Block is reusable scratch: Reset, Add up to four screens,
// Run, and Reset again.
type Block struct {
	qr   *Rows
	m    int
	scr  [4]Screen
	n    [4]int
	cut  [4]int32
	qbuf []int8 // the block kernel's interleaved query chunks (packBlock)
}

// Reset empties the block.
func (b *Block) Reset() { b.m, b.qr = 0, nil }

// Len returns the number of queued screens.
func (b *Block) Len() int { return b.m }

// Add queues the screen s of the first n rows of its panel against cut, as
// s.Prefix(n, cut, …) would run it, and reports whether the block is now
// full. Every screen of a block must be of the same panel; Add panics on a
// fifth screen or another panel.
func (b *Block) Add(s Screen, n int, cut float64) (full bool) {
	if b.m == len(b.scr) || (b.m > 0 && s.qr != b.qr) {
		panic("quant: Block.Add past four screens or across panels")
	}
	if n < 0 || n > s.qr.n {
		panic("quant: Block.Add prefix outside the panel")
	}
	b.qr = s.qr
	b.scr[b.m], b.n[b.m], b.cut[b.m] = s, n, s.intCut(cut)
	b.m++
	return b.m == len(b.scr)
}

// Run screens every queued prefix and writes the survivors of screen j, in
// row order, to rows[j], which must hold at least that screen's n elements.
// It returns the survivor counts and leaves the block as it is.
func (b *Block) Run(rows *[4][]int32) (k [4]int) {
	if b.m == 0 {
		return k
	}
	r := b.qr.r
	if b.m == 1 || !blockKernel(r) {
		for j := range b.m {
			k[j] = screenPanel(b.scr[j].codes, b.qr.Codes[:b.n[j]*r], b.cut[j], rows[j][:b.n[j]])
		}
		return k
	}
	// The block kernel takes the rows at least two queries screen; the
	// longest prefix's rows past the second longest take the one-query
	// kernel, which is cheaper for a single query.
	j0 := 0
	for j := 1; j < b.m; j++ {
		if b.n[j] > b.n[j0] {
			j0 = j
		}
	}
	n2 := 0
	for j := range b.m {
		if j != j0 {
			n2 = max(n2, b.n[j])
		}
	}
	if n2 > 0 {
		k = b.runKernel(n2, rows)
	}
	if rest := b.n[j0] - n2; rest > 0 {
		out := rows[j0][k[j0] : k[j0]+rest]
		c := screenPanel(b.scr[j0].codes, b.qr.Codes[n2*r:b.n[j0]*r], b.cut[j0], out)
		for i := range out[:c] {
			out[i] += int32(n2)
		}
		k[j0] += c
	}
	return k
}

// runKernel runs the block kernel over the panel's first n rows, each query
// limited to its own prefix within them.
func (b *Block) runKernel(n int, rows *[4][]int32) [4]int {
	var lim, cut [16]int32
	var out [4]*int32
	for j := range b.m {
		s := &b.scr[j]
		lj := int32(min(b.n[j], n))
		// The kernel compares Σ (p+128)·q = d + 128·Σq with the cut, so
		// the cut moves by the bias; past the int32 range it keeps or drops
		// every row, as the clamp does (|Σ (p+128)·q| < 2³¹ − 1, see
		// blockMaxDim).
		cj := int32(min(max(int64(b.cut[j])+128*int64(s.sum), math.MinInt32), math.MaxInt32))
		for i := range 4 {
			lim[4*j+i], cut[4*j+i] = lj, cj
		}
		if lj > 0 {
			out[j] = &rows[j][0]
		}
	}
	var cnt [4]int
	screenBlockVNNI(&b.packBlock()[0], &b.qr.Codes[0], b.qr.r, n, &lim, &cut, &out, &cnt)
	return cnt
}

// packBlock lays the queued queries' codes out for the block kernel: chunk
// c of query j (codes 32c … 32c+31) at byte 128c + 32j, zero past r and in
// the slots of absent queries, so one pointer and the row offset address
// every query's chunk, and a zero code cancels whatever its row lane holds.
func (b *Block) packBlock() []int8 {
	r := b.qr.r
	size := 128 * ((r + 31) / 32)
	if cap(b.qbuf) < size {
		b.qbuf = make([]int8, size)
	}
	buf := b.qbuf[:size]
	clear(buf)
	for j := range b.m {
		codes := b.scr[j].codes
		for c := 0; 32*c < r; c++ {
			copy(buf[128*c+32*j:128*c+32*j+32], codes[32*c:min(32*c+32, r)])
		}
	}
	return buf
}
