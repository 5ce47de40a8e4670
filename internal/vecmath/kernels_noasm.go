//go:build !amd64 || purego

package vecmath

// No assembly in this build: the wrappers in kernels.go always take the
// portable kernels, and the compiler drops the branches that would call the
// functions below.
const useAVX2, useVNNI = false, false

func hostTier() Tier { return TierPortable }

func limitTier(Tier) {}

func dotAVX2(a, b *float64, n int) float64 { panic("vecmath: no AVX2 kernels in this build") }

func dot4AVX2(q, p0, p1, p2, p3 *float64, n int, out *[4]float64) {
	panic("vecmath: no AVX2 kernels in this build")
}

func dot8AVX2(q, p0, p1, p2, p3, p4, p5, p6, p7 *float64, n int, out *[8]float64) {
	panic("vecmath: no AVX2 kernels in this build")
}

func dotBatch8AVX2(q, panel *float64, n, groups int, out *float64) {
	panic("vecmath: no AVX2 kernels in this build")
}
