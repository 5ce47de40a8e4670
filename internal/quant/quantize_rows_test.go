package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// quantizePanelReference is quantizePanel row by row through
// quantizeRowReference: the codes of every row and the two panel maxima.
func quantizePanelReference(codes []int8, rows []float64, r int, scale float64) (maxResid, maxNormUB float64) {
	for i := 0; i < len(rows)/r; i++ {
		resid, norm := quantizeRowReference(codes[i*r:(i+1)*r], rows[i*r:(i+1)*r], scale)
		maxResid, maxNormUB = max(maxResid, resid), max(maxNormUB, norm+resid)
	}
	return maxResid, maxNormUB
}

// checkPanel holds quantizePanel at step scale, and QuantizeRows at the
// panel's own step, to the references bit for bit: every code, both panel
// maxima, and the step itself. Stale codes must be overwritten.
// QuantizeRowsMax, given the largest of the rows' MaxAbs as core's length
// pass computes it, must give QuantizeRows' sidecar bit for bit.
func checkPanel(t *testing.T, kind string, rows []float64, r int, scale float64) {
	t.Helper()
	n := len(rows) / r
	got, want := make([]int8, n*r), make([]int8, n*r)
	for i := range got {
		got[i], want[i] = 99, -99
	}
	gr, gn := quantizePanel(got, rows, r, scale)
	wr, wn := quantizePanelReference(want, rows, r, scale)
	comparePanels(t, kind, r, n, scale, got, want, gr, gn, wr, wn, rows)

	qr := QuantizeRows(rows, r)
	s := maxAbs(rows) / 127
	if math.Float64bits(qr.Scale) != math.Float64bits(s) {
		t.Fatalf("%s r=%d n=%d: QuantizeRows step %v, reference %v", kind, r, n, qr.Scale, s)
	}
	wr, wn = quantizePanelReference(want, rows, r, s)
	comparePanels(t, kind+" (QuantizeRows)", r, n, s, qr.Codes, want, qr.maxResid, qr.maxNormUB, wr, wn, rows)

	rowMax := 0.0
	for i := range n {
		rowMax = max(rowMax, maxAbs(rows[i*r:(i+1)*r]))
	}
	qm := QuantizeRowsMax(rows, r, rowMax)
	if math.Float64bits(qm.Scale) != math.Float64bits(s) {
		t.Fatalf("%s r=%d n=%d: QuantizeRowsMax step %v, reference %v", kind, r, n, qm.Scale, s)
	}
	comparePanels(t, kind+" (QuantizeRowsMax)", r, n, s, qm.Codes, want, qm.maxResid, qm.maxNormUB, wr, wn, rows)
}

func comparePanels(t *testing.T, kind string, r, n int, scale float64, got, want []int8, gr, gn, wr, wn float64, rows []float64) {
	t.Helper()
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("%s r=%d n=%d scale=%g: row %d code %d = %d, reference %d\nrow %v", kind, r, n, scale, j/r, j%r, got[j], want[j], rows[j/r*r:(j/r+1)*r])
		}
	}
	if math.Float64bits(gr) != math.Float64bits(wr) || math.Float64bits(gn) != math.Float64bits(wn) {
		t.Fatalf("%s r=%d n=%d scale=%g: panel maxima (%v, %v), reference (%v, %v)", kind, r, n, scale, gr, gn, wr, wn)
	}
}

// fillRow writes one row of a kind TestQuantizeRowMatchesReference covers,
// at magnitude m: Gaussian, exact .5 ties at step m·2⁻⁷, coordinates at
// ±m, zeros with a signed zero, subnormals, or a Gaussian row with one NaN
// or ±Inf.
func fillRow(rng *rand.Rand, row []float64, m float64) {
	switch rng.Intn(7) {
	case 0, 1:
		for j := range row {
			row[j] = m * rng.NormFloat64()
		}
	case 2:
		for j := range row {
			row[j] = (float64(rng.Intn(254)-127) + 0.5) * m * 0x1p-7
		}
	case 3:
		for j := range row {
			switch rng.Intn(3) {
			case 0:
				row[j] = m
			case 1:
				row[j] = -m
			default:
				row[j] = m * (2*rng.Float64() - 1)
			}
		}
	case 4:
		clear(row)
		row[rng.Intn(len(row))] = math.Copysign(0, -1)
	case 5:
		for j := range row {
			row[j] = 5e-324 * float64(rng.Intn(1<<20)-1<<19)
		}
	default:
		for j := range row {
			row[j] = m * rng.NormFloat64()
		}
		row[rng.Intn(len(row))] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
	}
}

// TestQuantizeRowsMatchesReference holds the panel quantizer — four rows
// per kernel pass where the kernels are assembly, the rest row by row —
// through QuantizeRows and QuantizeRowsMax, and the vector maxAbs to their references bit for bit, for every r from
// 1 to 300 and every panel of 1 to 9 rows: panels mixing the row kinds of
// TestQuantizeRowMatchesReference (ties, ±maxabs, NaN and ±Inf, ±0,
// subnormal steps, magnitudes from 1e-300 to 1e300), each at its own step,
// one ulp either side of it, twice it and half it (where the clamp to ±127
// decides), and panels of exact .5 ties at their own power-of-two step.
func TestQuantizeRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	mags := []float64{1e-300, 1e-100, 1e-3, 1, 1e3, 1e100, 1e300}
	panels := 0
	for r := 1; r <= 300; r++ {
		for n := 1; n <= 9; n++ {
			rows := make([]float64, n*r)
			m := mags[rng.Intn(len(mags))]
			for i := range n {
				fillRow(rng, rows[i*r:(i+1)*r], m)
			}
			s := maxAbs(rows) / 127
			for _, scale := range []float64{s, math.Nextafter(s, 0), math.Nextafter(s, math.Inf(1)), 2 * s, s / 2} {
				checkPanel(t, "mixed", rows, r, scale)
			}
			// Ties at the panel's own step: one coordinate at 127 steps makes
			// maxabs/127 the power of two itself.
			step := math.Ldexp(1, rng.Intn(200)-100)
			for j := range rows {
				rows[j] = (float64(rng.Intn(254)-127) + 0.5) * step
			}
			rows[rng.Intn(len(rows))] = 127 * step
			checkPanel(t, "ties", rows, r, step)
			panels += 6
		}
	}
	t.Logf("%d panels checked", panels)
}

// FuzzQuantizeRows holds QuantizeRows and QuantizeRowsMax to their
// references on arbitrary
// float64 bit patterns — NaN payloads, ±Inf, subnormals and every
// magnitude — at a row dimension the input chooses.
func FuzzQuantizeRows(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for _, r := range []int{1, 16, 17, 50, 64} {
		rows := make([]float64, 5*r)
		for i := range 5 {
			fillRow(rng, rows[i*r:(i+1)*r], 1)
		}
		f.Add(binary.LittleEndian.AppendUint64(nil, 0), uint16(r))
		raw := make([]byte, 0, 8*len(rows))
		for _, x := range rows {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
		}
		f.Add(raw, uint16(r))
	}
	f.Fuzz(func(t *testing.T, raw []byte, rd uint16) {
		r := 1 + int(rd)%300
		n := min(len(raw)/8/r, 16)
		if n == 0 {
			return
		}
		rows := make([]float64, n*r)
		for j := range rows {
			rows[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
		}
		checkPanel(t, "fuzz", rows, r, maxAbs(rows)/127)
	})
}

// BenchmarkQuantizeRows quantizes a bucket of 2 048 Gaussian rows of
// dimension 50, as a sidecar build does (QuantizeRows: the step, then the
// codes and bounds), in cache (one panel over and over) and cold (a pool of
// 64 panels, 52 MB, visited in turn), through the dispatched kernels and
// the portable loops; ns/coord is the cost per coordinate.
//
//	go test ./internal/quant -run '^$' -bench QuantizeRows
func BenchmarkQuantizeRows(b *testing.B) {
	const r, n = 50, 2048
	rng := rand.New(rand.NewSource(1))
	pool := make([][]float64, 64)
	for i := range pool {
		pool[i] = make([]float64, n*r)
		for j := range pool[i] {
			pool[i][j] = rng.NormFloat64()
		}
	}
	portable := func(rows []float64) {
		scale := maxAbs(rows) / 127
		codes := make([]int8, len(rows))
		for i := 0; i < n; i++ {
			quantizeRow(codes[i*r:(i+1)*r], rows[i*r:(i+1)*r], scale)
		}
	}
	for _, impl := range []struct {
		name string
		fn   func([]float64)
	}{{"dispatch", func(rows []float64) { QuantizeRows(rows, r) }}, {"portable", portable}} {
		for _, temp := range []struct {
			name   string
			panels int
		}{{"cache", 1}, {"cold", len(pool)}} {
			b.Run(fmt.Sprintf("%s/%s", temp.name, impl.name), func(b *testing.B) {
				b.SetBytes(n * r * 8)
				for i := 0; i < b.N; i++ {
					impl.fn(pool[i%temp.panels])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*r), "ns/coord")
			})
		}
	}
}
