package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"lemp"
)

// FuzzDecodeRequest holds the hand-written request decoder to encoding/json
// for both retrieval endpoints: every body is accepted by both or refused by
// both, and an accepted body decodes to the same rows, coordinate for
// coordinate bit for bit, and the same k or θ. Bodies the fast grammar parses
// itself are checked against json.Unmarshal separately, so agreement is not
// merely the fallback agreeing with itself.
//
//	go test -run '^$' -fuzz FuzzDecodeRequest -fuzztime 15s ./internal/server
func FuzzDecodeRequest(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	bench := func(rows int, param string) string {
		qs := make([][]float64, rows)
		for i := range qs {
			qs[i] = make([]float64, 50)
			for j := range qs[i] {
				qs[i][j] = rng.NormFloat64()
			}
		}
		b, _ := json.Marshal(qs)
		return `{"queries":` + string(b) + `,` + param + `}`
	}
	for _, seed := range []struct {
		body string
		topk bool
	}{
		{bench(1, `"k":10`), true},
		{bench(16, `"k":10`), true},
		{bench(1, `"theta":0.9`), false},
		{bench(16, `"theta":0.9`), false},
		{`{"k":5,"queries":[[1,2,3]]}`, true},
		{`{"theta":5,"queries":[[1,2,3],[4,5,6]]}`, false},
		{`{"queries":[[1,2,3]],"queries":[[4,5,6],[7,8,9]],"k":1,"k":2}`, true},
		{`{"queries":[[1,2]],"queries":[[4,5,6]],"theta":1,"theta":2}`, false},
		{`{"queries":[[1,2,3]],"k":2,"extra":[1,{"a":null}]}`, true},
		{`{"queries":[[1,2,3]],"k":2}`, false},
		{`{"queries":[[1,2,3]],"k":2}`, true},
		{`{"Queries":[[1,2,3]],"K":2}`, true},
		{`{"QUERIES":[[1,2,3]],"Theta":0.5}`, false},
		{" \t\n{ \"queries\" : [ [ 1 , 2 , 3 ] , [ ] ] , \"k\" : 2 } \r\n", true},
		{`{"queries":[[-0,5e-324,2.2250738585072014e-308]],"theta":4.9406564584124654e-324}`, false},
		{`{"queries":[[0.12345678901234567,1.7976931348623157e308,-1.0000000000000002]],"k":1}`, true},
		{`{"queries":[[1E5,1e-7,-0.0e+0]],"k":-0}`, true},
		{`{"queries":[[1,2,3]],"k":1.5}`, true},
		{`{"queries":[[1,2,3]],"k":1e2}`, true},
		{`{"queries":[[1,2,3]],"k":99999999999999999999}`, true},
		{`{"queries":[[1e400,2,3]],"k":1}`, true},
		{`{"queries":[[NaN,2,3]],"theta":Infinity}`, false},
		{`{"queries":[[0x1p3,1_0,+1]],"k":1}`, true},
		{`{"queries":[[01,1.,.5]],"k":1}`, true},
		{`{"queries":[[1e,-,1e+]],"k":1}`, true},
		{`{"queries":[[1,null,3],null],"k":null}`, true},
		{`{"queries":null,"theta":null}`, false},
		{`{"queries":{},"k":1}`, true},
		{`{"queries":[[1,2,3]],"k":1}garbage`, true},
		{`{"queries":[[1,2,3]],"k":1}{"queries":[],"k":2}`, true},
		{`{"queries":[[1,2,3]`, true},
		{`{}`, true},
		{`null`, false},
		{``, true},
		{`[]`, true},
		{`{"queries":[[1,2,3]],}`, true},
		{`{"queries":[[1,2,3],],"k":1}`, true},
		{`{"queries":[[1,2,3]] "k":1}`, true},
		{"{\"queries\":[[1,2,3]],\"k\":1}\x00", true},
		{"{\"qu\xffries\":[[1,2,3]],\"k\":1}", true},
	} {
		f.Add([]byte(seed.body), seed.topk, uint8(3))
	}
	f.Fuzz(func(t *testing.T, body []byte, topk bool, dim8 uint8) {
		dim := int(dim8)
		want, wantErr := oracleDecode(body, topk, dim)

		var fast queryRequest
		fast.badRow = -1
		if fast.parse(body, topk, dim) {
			if wantErr != nil {
				t.Fatalf("fast path accepted %q; json.Unmarshal refuses it: %v", body, wantErr)
			}
			sameRequest(t, body, &fast, want)
		}

		var got queryRequest
		gotErr := got.decode(body, topk, dim)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("%q: decode error %v, json.Unmarshal error %v", body, gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%q: decode error %q, json.Unmarshal error %q", body, gotErr, wantErr)
			}
		default:
			sameRequest(t, body, &got, want)
		}
	})
}

// oracleDecode decodes body with encoding/json and flattens the result the
// way the server consumes it.
func oracleDecode(body []byte, topk bool, dim int) (*queryRequest, error) {
	var queries [][]float64
	want := &queryRequest{badRow: -1}
	if topk {
		var req topKRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		queries, want.k = req.Queries, req.K
	} else {
		var req aboveRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		queries, want.theta = req.Queries, req.Theta
	}
	want.rows = len(queries)
	for i, row := range queries {
		if len(row) != dim && want.badRow < 0 {
			want.badRow, want.badLen = i, len(row)
		}
		want.data = append(want.data, row...)
	}
	return want, nil
}

func sameRequest(t *testing.T, body []byte, got, want *queryRequest) {
	t.Helper()
	if got.rows != want.rows || got.badRow != want.badRow || got.badLen != want.badLen || got.k != want.k ||
		math.Float64bits(got.theta) != math.Float64bits(want.theta) || len(got.data) != len(want.data) {
		t.Fatalf("%q: decoded rows=%d bad=%d/%d k=%d θ=%v (%d values), json.Unmarshal rows=%d bad=%d/%d k=%d θ=%v (%d values)",
			body, got.rows, got.badRow, got.badLen, got.k, got.theta, len(got.data),
			want.rows, want.badRow, want.badLen, want.k, want.theta, len(want.data))
	}
	for i := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
			t.Fatalf("%q: value %d decoded as %v, json.Unmarshal gives %v", body, i, got.data[i], want.data[i])
		}
	}
}

// TestAppendResultsMatchesMarshal checks the response encoder against the
// encoding it replaces, json.Marshal of a queryResponse plus a newline,
// byte for byte: empty responses and rows, large probe ids, signed zeros,
// values at the boundaries of encoding/json's 'f'/'e' switch (1e-6 and
// 1e21) and around 1e-7, where the exponent loses its padding, and random
// magnitudes across the float64 range.
func TestAppendResultsMatchesMarshal(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, 9.99999e-7, 1e-6, 1.0000000000000002e-6, 9.999999999999999e-7,
		1e-7 + 1e-23, -1e-7, 1e20, 1e21, 9.999999999999998e20, -1e21, 1e22, 5e-324, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, 0.12345678901234567, 123456789012345680, 1e-10, 1e100, 1e-100,
	}
	rng := rand.New(rand.NewSource(1))
	value := func() float64 {
		if rng.Intn(3) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(620)-320))
	}
	probes := []int{0, 1, 999, math.MaxInt32, math.MaxInt64, math.MinInt64}
	for trial := 0; trial < 2000; trial++ {
		rows := make([][]lemp.Entry, rng.Intn(5))
		for i := range rows {
			rows[i] = make([]lemp.Entry, rng.Intn(6))
			for j := range rows[i] {
				p := rng.Intn(1 << 20)
				if rng.Intn(4) == 0 {
					p = probes[rng.Intn(len(probes))]
				}
				rows[i][j] = lemp.Entry{Query: i, Probe: p, Value: value()}
			}
		}
		got, err := appendResults(nil, rows)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalResults(t, rows); string(got) != want {
			t.Fatalf("appendResults:\n%s\njson.Marshal:\n%s", got, want)
		}
	}
	for _, x := range edges {
		rows := [][]lemp.Entry{{{Probe: 7, Value: x}}}
		got, _ := appendResults([]byte("stale"), rows)
		if want := "stale" + marshalResults(t, rows); string(got) != want {
			t.Fatalf("%v: appendResults %s, json.Marshal %s", x, got, want)
		}
	}

	// A value JSON cannot spell fails with encoding/json's own error.
	for _, x := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		rows := [][]lemp.Entry{{{Probe: 1, Value: 1}, {Probe: 2, Value: x}}}
		_, err := appendResults(nil, rows)
		_, want := json.Marshal(toResponse(rows))
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("%v: appendResults error %v, json.Marshal error %v", x, err, want)
		}
	}
}

func toResponse(rows [][]lemp.Entry) queryResponse {
	resp := queryResponse{Results: make([][]resultEntry, len(rows))}
	for i, row := range rows {
		resp.Results[i] = make([]resultEntry, len(row))
		for j, e := range row {
			resp.Results[i][j] = resultEntry{Probe: e.Probe, Value: e.Value}
		}
	}
	return resp
}

func marshalResults(t *testing.T, rows [][]lemp.Entry) string {
	t.Helper()
	b, err := json.Marshal(toResponse(rows))
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// FuzzDecodeUpdate holds the /v1/update decoder to encoding/json as
// FuzzDecodeRequest does the retrieval one: every body is accepted by both
// or refused by both, with the same error, and an accepted body decodes to
// the same ops, the same ids (absent ones included) and the same vectors,
// nil or not and bit for bit. Bodies the fast grammar parses itself are
// checked against json.Unmarshal separately.
//
//	go test -run '^$' -fuzz FuzzDecodeUpdate -fuzztime 15s ./internal/server
func FuzzDecodeUpdate(f *testing.F) {
	for _, seed := range []string{
		benchUpdateBody(rand.New(rand.NewSource(1))),
		`{"updates":[{"op":"add","vector":[1,2,3]},{"vector":[4,5,6],"id":7,"op":"add"},{"op":"remove","id":3},{"op":"update","id":2,"vector":[0.5,-0,1e-7]}]}`,
		" \t\n{ \"updates\" : [ { \"op\" : \"remove\" , \"id\" : 0 } ] } \r\n",
		`{"updates":[{"OP":"add","Id":1,"Vector":[1,2,3]}]}`,
		`{"Updates":[{"op":"add","vector":[1,2,3]}]}`,
		`{"updates":[{"op":"\u0061dd","vector":[1,2,3]}]}`,
		`{"updates":[{"op":"add","id":5,"id":null,"vector":[1,2,3]}]}`,
		`{"updates":[{"op":"add","id":5,"id":6,"op":"update","vector":[1,2,3,4],"vector":[7,8,9]}]}`,
		`{"updates":[{"op":"add","vector":[1,2,3],"vector":[]}]}`,
		`{"updates":[{"op":"remove","id":1,"vector":null}]}`,
		`{"updates":[{"op":"remove","id":1,"vector":[]}]}`,
		`{"updates":null}`,
		`{"updates":[]}`,
		`{}`,
		`{"updates":[{}]}`,
		`{"updates":[{"op":"move","id":1}]}`,
		`{"updates":[{"op":"add","vector":[1,2,3],"extra":{"a":[null]}}],"more":1}`,
		`{"updates":[{"op":"add","id":1},{"op":"remove","id":2}],"updates":[{"op":"remove"}]}`,
		`{"updates":[{"op":"add","id":1.0,"vector":[1,2,3]}]}`,
		`{"updates":[{"op":"add","id":1e2,"vector":[1,2,3]}]}`,
		`{"updates":[{"op":"add","id":2147483648,"vector":[1,2,3]}]}`,
		`{"updates":[{"op":"add","id":-2147483649,"vector":[1,2,3]}]}`,
		`{"updates":[{"op":"add","id":-0,"vector":[1,2,3]}]}`,
		`{"updates":[{"op":"add","id":-1,"vector":[1e400,2,3]}]}`,
		`{"updates":[{"op":"add","vector":[NaN,01,.5]}]}`,
		`{"updates":[{"op":"add","vector":[1,2,3]}]}garbage`,
		`{"updates":[{"op":"add","vector":[1,2,3]}]}{"updates":[]}`,
		`{"updates":[{"op":"add","vector":[1,2,3]},]}`,
		`{"updates":[{"op":"add","vector":[1,2,3]}]`,
		"{\"updates\":[{\"op\":\"add\",\"vector\":[1]}]}\x00",
		"{\"updates\":[{\"op\":\"\xffadd\",\"vector\":[1]}]}",
		`null`,
		``,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := oracleUpdate(body)

		var fast updateBatch
		if fast.parse(body) {
			if wantErr != nil {
				t.Fatalf("fast path accepted %q; json.Unmarshal refuses it: %v", body, wantErr)
			}
			sameOps(t, body, fast.ops, want)
		}

		var got updateBatch
		gotErr := got.decode(body)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("%q: decode error %v, json.Unmarshal error %v", body, gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%q: decode error %q, json.Unmarshal error %q", body, gotErr, wantErr)
			}
		default:
			sameOps(t, body, got.ops, want)
		}
	})
}

// benchUpdateBody is a benchmark-shaped /v1/update body: four adds under
// explicit ids, two updates and two removes, 50 coordinates a vector.
func benchUpdateBody(rng *rand.Rand) string {
	vec := func() string {
		c := make([]string, 50)
		for i := range c {
			c[i] = strconv.FormatFloat(rng.NormFloat64(), 'g', -1, 64)
		}
		return `[` + strings.Join(c, ",") + `]`
	}
	ops := make([]string, 0, 8)
	for i := 0; i < 4; i++ {
		ops = append(ops, `{"op":"add","id":`+strconv.Itoa(100000+i)+`,"vector":`+vec()+`}`)
	}
	for i := 0; i < 2; i++ {
		ops = append(ops, `{"op":"update","id":`+strconv.Itoa(rng.Intn(100000))+`,"vector":`+vec()+`}`)
	}
	for i := 0; i < 2; i++ {
		ops = append(ops, `{"op":"remove","id":`+strconv.Itoa(rng.Intn(100000))+`}`)
	}
	return `{"updates":[` + strings.Join(ops, ",") + `]}`
}

// oracleUpdate decodes body with encoding/json into the handler's ops.
func oracleUpdate(body []byte) ([]parsedOp, error) {
	var req updateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	ops := make([]parsedOp, len(req.Updates))
	for i, op := range req.Updates {
		ops[i] = parsedOp{op: op.Op, vec: op.Vector}
		if op.ID != nil {
			ops[i].id, ops[i].hasID = *op.ID, true
		}
	}
	return ops, nil
}

func sameOps(t *testing.T, body []byte, got, want []parsedOp) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%q: decoded %d ops, json.Unmarshal %d", body, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.op != w.op || g.hasID != w.hasID || g.id != w.id || (g.vec == nil) != (w.vec == nil) || len(g.vec) != len(w.vec) {
			t.Fatalf("%q: op %d decoded as %q id=%d/%v vector nil=%v len %d; json.Unmarshal %q id=%d/%v vector nil=%v len %d",
				body, i, g.op, g.id, g.hasID, g.vec == nil, len(g.vec), w.op, w.id, w.hasID, w.vec == nil, len(w.vec))
		}
		for j := range w.vec {
			if math.Float64bits(g.vec[j]) != math.Float64bits(w.vec[j]) {
				t.Fatalf("%q: op %d coordinate %d decoded as %v, json.Unmarshal gives %v", body, i, j, g.vec[j], w.vec[j])
			}
		}
	}
}

// TestAppendUpdateResponseMatchesMarshal checks the update response encoder
// against json.Marshal of an updateResponse plus a newline, byte for byte:
// nil and empty id lists, extreme epochs, counts and ids.
func TestAppendUpdateResponseMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	epochs := []uint64{0, 1, 99, math.MaxUint32, math.MaxUint64}
	counts := []int{0, 1, 100000, math.MaxInt64, -1, math.MinInt64}
	ids := []int32{0, 1, -1, 100000, math.MaxInt32, math.MinInt32}
	for trial := 0; trial < 2000; trial++ {
		r := updateResponse{Epoch: epochs[rng.Intn(len(epochs))], LiveProbes: counts[rng.Intn(len(counts))]}
		if rng.Intn(4) == 0 {
			r.Epoch, r.LiveProbes = rng.Uint64(), rng.Int()
		}
		switch n := rng.Intn(8) - 1; {
		case n == 0:
			r.IDs = []int32{}
		case n > 0:
			r.IDs = make([]int32, n)
			for i := range r.IDs {
				if r.IDs[i] = int32(rng.Uint32()); rng.Intn(2) == 0 {
					r.IDs[i] = ids[rng.Intn(len(ids))]
				}
			}
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendUpdateResponse([]byte("stale"), r); string(got) != "stale"+string(want)+"\n" {
			t.Fatalf("appendUpdateResponse:\n%s\njson.Marshal:\n%s", got[5:], want)
		}
	}
}

// BenchmarkQueryCodec measures decode + encode of a benchmark-shaped
// /v1/topk exchange (one or 16 rows of 50 coordinates, ten results a row)
// against encoding/json doing the same.
func BenchmarkQueryCodec(b *testing.B) {
	for _, n := range []int{1, 16} {
		rng := rand.New(rand.NewSource(1))
		qs := make([]string, n)
		for i := range qs {
			coords := make([]string, 50)
			for j := range coords {
				coords[j] = strconv.FormatFloat(rng.NormFloat64(), 'g', -1, 64)
			}
			qs[i] = `[` + strings.Join(coords, ",") + `]`
		}
		body := []byte(`{"queries":[` + strings.Join(qs, ",") + `],"k":10}`)
		rows := make([][]lemp.Entry, n)
		for i := range rows {
			rows[i] = make([]lemp.Entry, 10)
			for j := range rows[i] {
				rows[i][j] = lemp.Entry{Query: i, Probe: rng.Intn(100000), Value: rng.Float64() * 3}
			}
		}
		b.Run(fmt.Sprintf("rows=%d/codec", n), func(b *testing.B) {
			b.ReportAllocs()
			var q queryRequest
			var out []byte
			for range b.N {
				if err := q.decode(body, true, 50); err != nil {
					b.Fatal(err)
				}
				out, _ = appendResults(out[:0], rows)
			}
		})
		b.Run(fmt.Sprintf("rows=%d/encoding_json", n), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				var req topKRequest
				if err := json.Unmarshal(body, &req); err != nil {
					b.Fatal(err)
				}
				if _, err := json.Marshal(toResponse(rows)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpdateCodec measures decode + encode of a benchmark-shaped
// /v1/update exchange (eight ops, six vectors of 50 coordinates) against
// encoding/json doing the same.
func BenchmarkUpdateCodec(b *testing.B) {
	body := []byte(benchUpdateBody(rand.New(rand.NewSource(1))))
	resp := updateResponse{Epoch: 17, LiveProbes: 100004, IDs: []int32{100000, 100001, 100002, 100003, 5, 6, 7, 8}}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var u updateBatch
		var out []byte
		for range b.N {
			if err := u.decode(body); err != nil {
				b.Fatal(err)
			}
			out = appendUpdateResponse(out[:0], resp)
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var req updateRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
			if _, err := json.Marshal(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
