package vecmath

// Verification kernels. LEMP's verification phase — one exact inner product
// per candidate that survived bucket-level pruning — is a dense
// panel-times-vector product in disguise: the probe directions of one bucket
// are contiguous rows, and a candidate set is a (possibly strided) selection
// of them. The kernels evaluate several rows per pass, each row with its own
// accumulators, while the shared query vector stays in registers.
//
// # Canonical accumulation order
//
// Every inner product this package computes — Dot, Dot4, Dot8 and DotBatch
// — is accumulated in one order, stated here once:
//
//   - four lanes l0..l3 start at +0; with n4 = 4⌊r/4⌋, element i < n4 is
//     multiplied, rounded, and added to lane i mod 4;
//   - the lanes combine as (l0 + l2) + (l1 + l3);
//   - the tail elements n4 ≤ i < r are multiplied, rounded, and added to
//     that sum one by one, in index order;
//   - a product and the addition that consumes it are two roundings: there
//     is no fused multiply-add anywhere.
//
// It is the order one 256-bit register of four doubles produces, so the
// AVX2 assembly (kernels_amd64.s: chosen once at start-up when CPUID and
// XGETBV report AVX2 with operating-system support, on amd64 builds without
// the purego tag) and the portable Go code (kernels_generic.go: every other
// GOARCH, CPUs without AVX2, -tags purego) follow it operation for
// operation and return the same bits. So on a given machine every kernel is
// bit-identical, row by row, to Dot on that row; only the interleaving
// *across* rows differs between kernels, which no result depends on. The
// exactness-asserted paths (the differential harness, the tile-vs-row
// test, the bulk cross-check) rely on that.
//
// The wrappers below keep the shape checks and every slice-to-pointer step
// in Go: assembly sees only rows of r ≥ 4 elements whose lengths were
// checked, and reads exactly r elements of each.

// AVX2 reports whether this process runs the AVX2 assembly kernels: the one
// CPU probe in the tree, which internal/quant's int8 kernels dispatch on
// too. False on every GOARCH but amd64, on amd64 CPUs or operating systems
// without AVX2 support, and under -tags purego.
func AVX2() bool { return useAVX2 }

// VNNI reports whether internal/quant runs its int8 VNNI kernels, the block
// kernel (four queries per row load) and the one-query panel screen, both
// built on the EVEX-encoded VPDPBUSD: AVX2 plus AVX-512 F, BW, VL and VNNI,
// with the operating system saving the opmask and ZMM state. False wherever
// AVX2 is.
func VNNI() bool { return useVNNI }

// Kernels names the kernel tier in use, for run headers and /stats: a slow
// host is told from a slow build by this string. "avx2+avx512vnni" is the
// AVX2 kernels plus quant's int8 VNNI kernels.
func Kernels() string {
	switch {
	case useVNNI:
		return "avx2+avx512vnni"
	case useAVX2:
		return "avx2"
	}
	return "portable"
}

// Tier is a kernel set; each tier runs everything the tiers below it do
// not. The host's tier is probed once at start-up, as AVX2 is.
type Tier uint8

const (
	TierPortable Tier = iota // the Go loops: other GOARCHes, -tags purego
	TierAVX2                 // the AVX2 assembly of both packages
	TierVNNI                 // AVX2 plus quant's int8 VNNI kernels
)

// HostTier returns the highest tier this process can run.
func HostTier() Tier { return hostTier() }

// LimitTier makes this process run the kernels of at most tier t (never
// more than HostTier) until restore is called, so that tests on a VNNI host
// also drive the AVX2 and the portable paths through the same entry points.
// It is a test hook, not a setting: it must not run beside any kernel call,
// and an index built under one tier must not be queried under another
// (core decides at build whether the int8 screen is on).
func LimitTier(t Tier) (restore func()) {
	limitTier(t)
	return func() { limitTier(hostTier()) }
}

// Dot returns the inner product of a and b, accumulated in the canonical
// order above. The slices must have equal length; Dot panics otherwise (a
// programming error, not an input error).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: Dot on vectors of unequal length")
	}
	if useAVX2 && len(a) >= 4 {
		return dotAVX2(&a[0], &b[0], len(a))
	}
	return dotGo(a, b)
}

// DotBatch computes the inner product of q against every row of a contiguous
// row-panel: out[i] = Dot(q, panel[i*r:(i+1)*r]) for r = len(q). The panel
// must hold exactly len(out) rows; DotBatch panics otherwise (a programming
// error, not an input error). Each out[i] is bit-identical to the
// corresponding Dot call. A zero-dimension q yields all-zero outputs.
func DotBatch(q, panel, out []float64) {
	r := len(q)
	if len(panel) != len(out)*r {
		panic("vecmath: DotBatch panel size does not match len(out) rows")
	}
	if !useAVX2 || r < 4 {
		dotBatchGo(q, panel, out)
		return
	}
	n := len(out)
	i := n &^ 7
	if i > 0 {
		dotBatch8AVX2(&q[0], &panel[0], r, i/8, &out[0])
	}
	if i+4 <= n {
		p := panel[i*r : (i+4)*r]
		dot4AVX2(&q[0], &p[0], &p[r], &p[2*r], &p[3*r], r, (*[4]float64)(out[i:i+4]))
		i += 4
	}
	for ; i < n; i++ {
		out[i] = dotAVX2(&q[0], &panel[i*r], r)
	}
}

// Dot4 computes four inner products of q against four rows at once, for
// strided candidate sets whose rows are not adjacent in memory: out[j] =
// Dot(q, pj), bit-identical to four Dot calls. All rows must have len(q)
// elements; Dot4 panics otherwise.
func Dot4(q, p0, p1, p2, p3 []float64, out *[4]float64) {
	r := len(q)
	if len(p0) != r || len(p1) != r || len(p2) != r || len(p3) != r {
		panic("vecmath: Dot4 on rows of unequal length")
	}
	if useAVX2 && r >= 4 {
		dot4AVX2(&q[0], &p0[0], &p1[0], &p2[0], &p3[0], r, out)
		return
	}
	dot4Go(q, p0, p1, p2, p3, out)
}

// Dot8 is Dot4 widened to eight rows: out[j] = Dot(q, pj), bit-identical to
// eight Dot calls. Eight independent rows hide the floating-point latency
// of one row's accumulators; the blocked verifier prefers it and falls back
// to Dot4/Dot for the tail.
func Dot8(q, p0, p1, p2, p3, p4, p5, p6, p7 []float64, out *[8]float64) {
	r := len(q)
	if len(p0) != r || len(p1) != r || len(p2) != r || len(p3) != r ||
		len(p4) != r || len(p5) != r || len(p6) != r || len(p7) != r {
		panic("vecmath: Dot8 on rows of unequal length")
	}
	if useAVX2 && r >= 4 {
		dot8AVX2(&q[0], &p0[0], &p1[0], &p2[0], &p3[0], &p4[0], &p5[0], &p6[0], &p7[0], r, out)
		return
	}
	dot8Go(q, p0, p1, p2, p3, p4, p5, p6, p7, out)
}
