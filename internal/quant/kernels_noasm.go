//go:build !amd64 || purego

package quant

// No assembly in this build: vecmath.AVX2 is constant false here, the
// dispatchers in kernels.go always take the portable kernels, and the
// compiler drops the branches that would call the functions below.

func dotAVX2(a, b *int8, n int) int32 { panic("quant: no AVX2 kernels in this build") }

func dot8AVX2(q, codes *int8, rows *[8]int, n int, out *[8]int32, cut int32) uint8 {
	panic("quant: no AVX2 kernels in this build")
}

func dotPanelAVX2(q, panel *int8, n, groups int, cut int32, rows *int32) int {
	panic("quant: no AVX2 kernels in this build")
}

func screenBlockVNNI(qbuf, panel *int8, r, n int, lim, cut *[16]int32, out *[4]*int32, cnt *[4]int) {
	panic("quant: no VNNI kernels in this build")
}

func quantize4AVX2(rows *float64, codes *int8, n int, scale, inv float64, sums *[12]float64) {
	panic("quant: no AVX2 kernels in this build")
}

func maxAbsAVX2(v *float64, n int) float64 { panic("quant: no AVX2 kernels in this build") }
