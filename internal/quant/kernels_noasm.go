//go:build !amd64 || purego

package quant

// No assembly in this build: vecmath.AVX2 is constant false here, the
// dispatchers in kernels.go always take the portable kernels, and the
// compiler drops the branches that would call the functions below.

func dotAVX2(a, b *int8, n int) int32 { panic("quant: no AVX2 kernels in this build") }

func dot8AVX2(q, p0, p1, p2, p3, p4, p5, p6, p7 *int8, n int, out *[8]int32) {
	panic("quant: no AVX2 kernels in this build")
}

func dotPanelAVX2(q, panel *int8, n, rows int, out *int32) {
	panic("quant: no AVX2 kernels in this build")
}
