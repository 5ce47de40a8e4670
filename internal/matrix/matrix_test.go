package matrix

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(3, 4)
	if m.R() != 3 || m.N() != 4 || len(m.Data()) != 12 {
		t.Fatalf("R=%d N=%d len=%d", m.R(), m.N(), len(m.Data()))
	}
	copy(m.Vec(2), []float64{1, 2, 3})
	if m.Data()[6] != 1 || m.Data()[8] != 3 {
		t.Errorf("Vec aliasing broken: %v", m.Data())
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := New(0, 0)
	if m.N() != 0 {
		t.Errorf("empty N=%d", m.N())
	}
	var zero Matrix
	if zero.N() != 0 || zero.R() != 0 {
		t.Errorf("zero value: R=%d N=%d", zero.R(), zero.N())
	}
}

func TestFromVectors(t *testing.T) {
	m, err := FromVectors([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.R() != 2 || m.N() != 3 || m.Vec(1)[1] != 4 {
		t.Errorf("unexpected contents")
	}
	if _, err := FromVectors([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged input accepted")
	}
	e, err := FromVectors(nil)
	if err != nil || e.N() != 0 {
		t.Errorf("nil input: %v %d", err, e.N())
	}
}

func TestFromData(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m, err := FromData(3, 2, data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Vec(1)[0] != 4 {
		t.Error("wrong layout")
	}
	if _, err := FromData(3, 3, data); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FromData(-1, 2, data); err == nil {
		t.Error("negative dimension accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := New(2, 2)
	m.Vec(0)[0] = 7
	c := m.Clone()
	c.Vec(0)[0] = 9
	if m.Vec(0)[0] != 7 {
		t.Error("clone shares storage")
	}
}

func TestHead(t *testing.T) {
	m := New(2, 5)
	for i := 0; i < 5; i++ {
		m.Vec(i)[0] = float64(i)
	}
	h := m.Head(3)
	if h.N() != 3 || h.Vec(2)[0] != 2 {
		t.Errorf("Head wrong: N=%d", h.N())
	}
	defer func() {
		if recover() == nil {
			t.Error("Head beyond size did not panic")
		}
	}()
	m.Head(6)
}

func TestLengthsAndProduct(t *testing.T) {
	m, _ := FromVectors([][]float64{{3, 4}, {0, 0}})
	l := m.Lengths()
	if l[0] != 5 || l[1] != 0 {
		t.Errorf("lengths %v", l)
	}
	p, _ := FromVectors([][]float64{{1, 1}})
	if v := m.Product(p, 0, 0); v != 7 {
		t.Errorf("product %g", v)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(7, 33)
	m.FillRandom(rng)
	m.Vec(5)[3] = math.Inf(1) // exact float64 round-trip, even specials
	m.Vec(6)[0] = -0.0
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.R() != m.R() || got.N() != m.N() {
		t.Fatalf("dims %dx%d", got.R(), got.N())
	}
	for i, x := range m.Data() {
		y := got.Data()[i]
		if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
			t.Fatalf("entry %d: %g != %g", i, x, y)
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a matrix at all")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("LEMPMAT1")); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := New(5, 17)
	m.FillRandom(rng)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range m.Data() {
		if got.Data()[i] != x {
			t.Fatalf("entry %d: %g != %g", i, got.Data()[i], x)
		}
	}
}

func TestCSVSkipsBlankAndRejectsBadFields(t *testing.T) {
	m, err := ReadCSV(strings.NewReader("1,2\n\n3,4\n"))
	if err != nil || m.N() != 2 {
		t.Fatalf("blank-line parse: %v, N=%d", err, m.N())
	}
	if _, err := ReadCSV(strings.NewReader("1,zebra\n")); err == nil {
		t.Error("bad field accepted")
	}
}

func TestComputeStats(t *testing.T) {
	m, _ := FromVectors([][]float64{{3, 4}, {0, 5}, {0, 0}})
	s := ComputeStats(m)
	if s.N != 3 || s.R != 2 {
		t.Errorf("dims in stats: %+v", s)
	}
	wantMean := (5.0 + 5.0 + 0.0) / 3
	if math.Abs(s.LengthMean-wantMean) > 1e-12 {
		t.Errorf("mean %g want %g", s.LengthMean, wantMean)
	}
	if s.MinLength != 0 || s.MaxLength != 5 {
		t.Errorf("min/max %g/%g", s.MinLength, s.MaxLength)
	}
	if math.Abs(s.NonZero-0.5) > 1e-12 { // 3 of 6 entries non-zero
		t.Errorf("nonzero %g", s.NonZero)
	}
	if s.LengthCoV <= 0 {
		t.Errorf("CoV %g", s.LengthCoV)
	}
	if z := ComputeStats(New(4, 0)); z.N != 0 || z.LengthCoV != 0 {
		t.Errorf("empty stats %+v", z)
	}
}

func TestSlice(t *testing.T) {
	m := New(2, 5)
	for i := 0; i < 5; i++ {
		m.Vec(i)[0] = float64(i)
	}
	s := m.Slice(1, 4)
	if s.R() != 2 || s.N() != 3 {
		t.Fatalf("R=%d N=%d", s.R(), s.N())
	}
	if s.Vec(0)[0] != 1 || s.Vec(2)[0] != 3 {
		t.Errorf("contents: %v", s.Data())
	}
	s.Vec(0)[1] = 42
	if m.Vec(1)[1] != 42 {
		t.Errorf("Slice should alias the parent storage")
	}
	if got := m.Slice(2, 2).N(); got != 0 {
		t.Errorf("empty slice N=%d", got)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-range Slice should panic")
		}
	}()
	m.Slice(3, 6)
}
