package vecmath

// Portable kernels: the canonical accumulation order of kernels.go written
// in Go. They are what runs on every GOARCH but amd64, on amd64 CPUs without
// AVX2 and under -tags purego, what the wrappers use for rows shorter than
// one four-lane block, and what the tests hold the assembly against.
//
// Each product is wrapped in an explicit float64 conversion: the language
// lets a compiler fuse x*y + z into one rounding (arm64, ppc64le, s390x and
// riscv64 do), and the conversion is the spec's way of forbidding that, so
// the bits match the assembly's separate multiply and add everywhere.
//
// Two rows share one pass so that eight independent accumulators (two rows
// of four lanes) keep the floating-point units busy while each query
// element is loaded once for both rows.

func dotGo(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var l0, l1, l2, l3 float64
	i := 0
	for ; i < n-3; i += 4 {
		l0 += float64(a[i] * b[i])
		l1 += float64(a[i+1] * b[i+1])
		l2 += float64(a[i+2] * b[i+2])
		l3 += float64(a[i+3] * b[i+3])
	}
	s := (l0 + l2) + (l1 + l3)
	for ; i < n; i++ {
		s += float64(a[i] * b[i])
	}
	return s
}

// dot2Go returns Dot(q, p0) and Dot(q, p1) from one pass over q. The loop
// body is written two lanes at a time: the compiler schedules a block's
// loads first, and taking all four lanes of both rows at once spills
// accumulators to the stack.
func dot2Go(q, p0, p1 []float64) (float64, float64) {
	n := len(q)
	p0, p1 = p0[:n], p1[:n]
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	i := 0
	for ; i < n-3; i += 4 {
		x0, x1 := q[i], q[i+1]
		a0 += float64(x0 * p0[i])
		b0 += float64(x0 * p1[i])
		a1 += float64(x1 * p0[i+1])
		b1 += float64(x1 * p1[i+1])
		x2, x3 := q[i+2], q[i+3]
		a2 += float64(x2 * p0[i+2])
		b2 += float64(x2 * p1[i+2])
		a3 += float64(x3 * p0[i+3])
		b3 += float64(x3 * p1[i+3])
	}
	s0 := (a0 + a2) + (a1 + a3)
	s1 := (b0 + b2) + (b1 + b3)
	for ; i < n; i++ {
		s0 += float64(q[i] * p0[i])
		s1 += float64(q[i] * p1[i])
	}
	return s0, s1
}

func dot4Go(q, p0, p1, p2, p3 []float64, out *[4]float64) {
	out[0], out[1] = dot2Go(q, p0, p1)
	out[2], out[3] = dot2Go(q, p2, p3)
}

func dot8Go(q, p0, p1, p2, p3, p4, p5, p6, p7 []float64, out *[8]float64) {
	out[0], out[1] = dot2Go(q, p0, p1)
	out[2], out[3] = dot2Go(q, p2, p3)
	out[4], out[5] = dot2Go(q, p4, p5)
	out[6], out[7] = dot2Go(q, p6, p7)
}

func dotBatchGo(q, panel, out []float64) {
	r := len(q)
	i := 0
	for ; i+2 <= len(out); i += 2 {
		out[i], out[i+1] = dot2Go(q, panel[i*r:(i+1)*r], panel[(i+1)*r:(i+2)*r])
	}
	if i < len(out) {
		out[i] = dotGo(q, panel[i*r:(i+1)*r])
	}
}
