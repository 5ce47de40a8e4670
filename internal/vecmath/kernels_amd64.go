//go:build amd64 && !purego

package vecmath

// hostAVX2 and hostVNNI are what the CPU and operating system support,
// probed once before main runs. useAVX2 selects the assembly kernels of
// kernels_amd64.s and useVNNI internal/quant's int8 block kernel; they equal
// the host's tier and change only under LimitTier, a test hook.
var (
	hostAVX2 = detectAVX2()
	hostVNNI = hostAVX2 && detectVNNI()

	useAVX2, useVNNI = hostAVX2, hostVNNI
)

func hostTier() Tier {
	switch {
	case hostVNNI:
		return TierVNNI
	case hostAVX2:
		return TierAVX2
	}
	return TierPortable
}

func limitTier(t Tier) {
	useAVX2 = hostAVX2 && t >= TierAVX2
	useVNNI = hostVNNI && t >= TierVNNI
}

// detectAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM registers across context switches: CPUID.1:ECX has
// OSXSAVE (bit 27) and AVX (bit 28), XCR0 enables the SSE and AVX state
// components (bits 1 and 2), and CPUID.(7,0):EBX has AVX2 (bit 5).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// detectVNNI reports, on a host detectAVX2 accepted, whether it runs the
// EVEX-encoded int8 block kernel: CPUID.(7,0):EBX has AVX512F (bit 16),
// AVX512BW (bit 30) and AVX512VL (bit 31), CPUID.(7,0):ECX has AVX512_VNNI
// (bit 11), and XCR0 also enables the opmask and both ZMM state components
// (bits 5, 6 and 7), which the kernel's K and ZMM registers need.
func detectVNNI() bool {
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	const f, bw, vl, vnni = 1 << 16, 1 << 30, 1 << 31, 1 << 11
	_, ebx, ecx, _ := cpuid(7, 0)
	return ebx&(f|bw|vl) == f|bw|vl && ecx&vnni != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0; the caller has checked OSXSAVE.
func xgetbv() (eax, edx uint32)

// The kernels read exactly n ≥ 4 elements behind every vector pointer and
// write only through out. The vectors need no alignment.

//go:noescape
func dotAVX2(a, b *float64, n int) float64

//go:noescape
func dot4AVX2(q, p0, p1, p2, p3 *float64, n int, out *[4]float64)

//go:noescape
func dot8AVX2(q, p0, p1, p2, p3, p4, p5, p6, p7 *float64, n int, out *[8]float64)

// dotBatch8AVX2 multiplies q with 8·groups contiguous rows of n elements
// starting at panel and stores the 8·groups products at out; groups ≥ 1.
//
//go:noescape
func dotBatch8AVX2(q, panel *float64, n, groups int, out *float64)
