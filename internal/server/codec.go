package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"

	"lemp"
)

// Every serving body — /v1/topk, /v1/above and /v1/update — has one fixed
// shape, and at the benchmark's request size encoding/json's reflection costs
// more than LEMP's scan. This file decodes those shapes by hand, with one
// scanner, into pooled buffers, and encodes the responses the same way.
// Every coordinate goes through one exact single-pass conversion (number.go)
// that gives strconv.ParseFloat's bits. encoding/json stays the authority:
// any body outside the strict grammars parsed here is handed to
// json.Unmarshal, which decides it and words the error, and FuzzDecodeRequest
// and FuzzDecodeUpdate hold the two to the same answer.

// queryRequest is a decoded /v1/topk or /v1/above body: the query rows
// flattened row-major, as the batcher takes them, plus k or θ.
type queryRequest struct {
	data []float64
	rows int
	// badRow is the first row whose length is not the index dimension (-1
	// when every row has it) and badLen that row's length: reported only
	// after the parameter check, the order serve has always refused in.
	badRow, badLen int
	k              int
	theta          float64
}

// codecBuf is one request's pooled scratch: the raw body, the decoded
// request and the encoded response.
type codecBuf struct {
	body bytes.Buffer
	req  queryRequest
	upd  updateBatch
	out  []byte
}

var codecPool = sync.Pool{New: func() any { return new(codecBuf) }}

// codecPoolMax bounds the buffers a codecBuf may carry back into the pool,
// so one huge request does not pin its memory for the life of the server.
const codecPoolMax = 1 << 20

// codecPoolOps bounds the update ops a codecBuf may carry back: the default
// MaxUpdateOps.
const codecPoolOps = 4096

func getCodecBuf() *codecBuf { return codecPool.Get().(*codecBuf) }

func putCodecBuf(cb *codecBuf) {
	if cb.body.Cap() > codecPoolMax || cap(cb.req.data)*8 > codecPoolMax || cap(cb.out) > codecPoolMax ||
		cap(cb.upd.data)*8 > codecPoolMax || cap(cb.upd.ops) > codecPoolOps {
		return
	}
	cb.body.Reset()
	codecPool.Put(cb)
}

// decodeQuery reads a retrieval body and decodes it into cb.req for
// dimension dim, writing the error response itself on failure.
func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request, topk bool, dim int, cb *codecBuf) bool {
	if !s.readBody(w, r, cb) {
		return false
	}
	if err := cb.req.decode(cb.body.Bytes(), topk, dim); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// readBody reads a request body into cb.body under the configured size
// limit, writing the error response itself on failure: 413 past the limit.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, cb *codecBuf) bool {
	body := r.Body
	if s.cfg.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	if r.ContentLength > 0 && (s.cfg.MaxBodyBytes <= 0 || r.ContentLength <= s.cfg.MaxBodyBytes) {
		cb.body.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	if _, err := cb.body.ReadFrom(body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// decode parses body as a topKRequest (topk) or aboveRequest: the strict
// fast grammar first, json.Unmarshal for everything else.
func (q *queryRequest) decode(body []byte, topk bool, dim int) error {
	*q = queryRequest{data: q.data[:0], badRow: -1}
	if q.parse(body, topk, dim) {
		return nil
	}
	*q = queryRequest{data: q.data[:0], badRow: -1}
	var queries [][]float64
	if topk {
		var req topKRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		queries, q.k = req.Queries, req.K
	} else {
		var req aboveRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		queries, q.theta = req.Queries, req.Theta
	}
	for i, row := range queries {
		if len(row) != dim && q.badRow < 0 {
			q.badRow, q.badLen = i, len(row)
		}
		q.data = append(q.data, row...)
	}
	q.rows = len(queries)
	return nil
}

// parse is the fast grammar: one object whose keys are exactly "queries"
// and "k" (topk) or "theta", unescaped and in any order, the last of a
// repeated key winning; "queries" an array of arrays of numbers, k an
// integer, θ a number; JSON whitespace between any tokens and nothing after
// the object. It reports false — leaving the body to json.Unmarshal — on
// anything else, which includes every malformed body, so an error's wording
// is always encoding/json's.
func (q *queryRequest) parse(body []byte, topk bool, dim int) bool {
	s := scanner{b: body}
	if !s.eat('{') {
		return false
	}
	if !s.eat('}') {
		for {
			key, ok := s.str()
			if !ok || !s.eat(':') {
				return false
			}
			switch {
			case string(key) == "queries":
				ok = q.parseQueries(&s, dim)
			case topk && string(key) == "k":
				// A fraction, an exponent or overflow is left to json.Unmarshal.
				var k int64
				k, ok = s.integer(64)
				q.k = int(k)
			case !topk && string(key) == "theta":
				q.theta, ok = s.float()
			default:
				return false // unknown, escaped or case-variant key
			}
			if !ok {
				return false
			}
			if s.eat(',') {
				continue
			}
			if s.eat('}') {
				break
			}
			return false
		}
	}
	s.ws()
	return s.i == len(s.b)
}

// parseQueries parses the "queries" array into q.data, replacing whatever
// an earlier "queries" key left there.
func (q *queryRequest) parseQueries(s *scanner, dim int) bool {
	q.data, q.rows, q.badRow, q.badLen = q.data[:0], 0, -1, 0
	if !s.eat('[') {
		return false // null, an object, a number...
	}
	if s.eat(']') {
		return true
	}
	for {
		if !s.eat('[') {
			return false
		}
		n := 0
		if !s.eat(']') {
			for {
				x, ok := s.float()
				if !ok {
					return false
				}
				q.data = append(q.data, x)
				n++
				if s.eat(',') {
					continue
				}
				if s.eat(']') {
					break
				}
				return false
			}
		}
		if n != dim && q.badRow < 0 {
			q.badRow, q.badLen = q.rows, n
		}
		q.rows++
		if s.eat(',') {
			continue
		}
		return s.eat(']')
	}
}

// updateBatch is a decoded /v1/update body, one parsedOp per op in order.
// The fast grammar's vectors alias data, pooled with the codecBuf:
// ProbeUpdate.Vec is copied on apply, so nothing outlives the request.
type updateBatch struct {
	ops  []parsedOp
	data []float64
	ups  []lemp.ProbeUpdate // the handler's validated batch, pooled too
}

// parsedOp is one decoded update op: updateOp without the pointer, hasID
// telling an absent id (auto-assign on add) from id 0.
type parsedOp struct {
	op     string
	id     int32
	hasID  bool
	vec    []float64 // nil when the op has no "vector"
	lo, hi int       // the fast grammar's vector, as data[lo:hi]; lo < 0 for none
}

// decode parses body as an updateRequest: the strict fast grammar first,
// json.Unmarshal for everything else, as queryRequest.decode does.
func (u *updateBatch) decode(body []byte) error {
	if u.parse(body) {
		return nil
	}
	u.ops = u.ops[:0]
	var req updateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	for _, op := range req.Updates {
		p := parsedOp{op: op.Op, vec: op.Vector}
		if op.ID != nil {
			p.id, p.hasID = *op.ID, true
		}
		u.ops = append(u.ops, p)
	}
	return nil
}

// parse is the update body's fast grammar: an empty object, or one whose
// only key is "updates", holding an array of op objects with the keys "op"
// (one of "add", "remove" and "update"), optional "id" (an int32) and
// optional "vector" (an array of numbers); keys unescaped, exact-case and in
// any order, the last of a repeated op key winning; JSON whitespace between
// any tokens and nothing after the object. Anything else reports false and
// is left to json.Unmarshal: a null, an unknown op, an unknown or repeated
// top-level key.
func (u *updateBatch) parse(body []byte) bool {
	u.ops, u.data = u.ops[:0], u.data[:0]
	s := scanner{b: body}
	if !s.eat('{') {
		return false
	}
	if !s.eat('}') {
		key, ok := s.str()
		if !ok || string(key) != "updates" || !s.eat(':') || !s.eat('[') {
			return false
		}
		if !s.eat(']') {
			for {
				if !u.parseOp(&s) {
					return false
				}
				if s.eat(',') {
					continue
				}
				if !s.eat(']') {
					return false
				}
				break
			}
		}
		if !s.eat('}') {
			return false
		}
	}
	s.ws()
	if s.i != len(s.b) {
		return false
	}
	for i := range u.ops {
		if op := &u.ops[i]; op.lo >= 0 {
			if op.vec = u.data[op.lo:op.hi:op.hi]; op.vec == nil {
				op.vec = []float64{} // present but empty, as encoding/json leaves it
			}
		}
	}
	return true
}

// parseOp parses one op object onto u.ops, its coordinates onto u.data.
func (u *updateBatch) parseOp(s *scanner) bool {
	if !s.eat('{') {
		return false
	}
	op := parsedOp{lo: -1}
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') {
			return false
		}
		switch string(key) {
		case "op":
			var v []byte
			if v, ok = s.str(); ok {
				switch string(v) {
				case "add":
					op.op = "add"
				case "remove":
					op.op = "remove"
				case "update":
					op.op = "update"
				default:
					ok = false
				}
			}
		case "id":
			var id int64
			id, ok = s.integer(32)
			op.id, op.hasID = int32(id), true
		case "vector":
			op.lo, op.hi, ok = u.parseVector(s)
		default:
			ok = false
		}
		if !ok {
			return false
		}
		if s.eat(',') {
			continue
		}
		if !s.eat('}') || op.op == "" {
			return false
		}
		u.ops = append(u.ops, op)
		return true
	}
}

// parseVector parses an array of numbers onto u.data, returning its bounds.
func (u *updateBatch) parseVector(s *scanner) (lo, hi int, ok bool) {
	lo = len(u.data)
	if !s.eat('[') {
		return 0, 0, false
	}
	if s.eat(']') {
		return lo, lo, true
	}
	for {
		x, ok := s.float()
		if !ok {
			return 0, 0, false
		}
		u.data = append(u.data, x)
		if s.eat(',') {
			continue
		}
		return lo, len(u.data), s.eat(']')
	}
}

// scanner walks a JSON body for parse.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it comes next.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string of printable ASCII without escapes — an object key
// or a string value — and returns its bytes, aliasing the body. Anything else
// reports false, for encoding/json's fuller matching and unescaping.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// number consumes one literal of JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
// The grammar check is what keeps strconv's wider syntax — NaN, Inf, hex
// floats, underscores, a leading '+' — out.
func (s *scanner) number() ([]byte, bool) {
	s.ws()
	b, i := s.b, s.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(b, i+1); j > i+1 {
			i = j
		} else {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			return nil, false
		}
	}
	s.i = i
	return b[start:i], true
}

// digits returns the index just past the run of ASCII digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// integer consumes an integer literal that fits in bits bits, as
// encoding/json reads one into an integer field. A fraction, an exponent or
// overflow reports false.
func (s *scanner) integer(bits int) (int64, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	return n, err == nil
}

// appendResults appends rows encoded exactly as json.Marshal encodes the
// equivalent queryResponse, plus the trailing newline writeJSON adds. A
// non-finite value is refused with encoding/json's own error.
func appendResults(b []byte, rows [][]lemp.Entry) ([]byte, error) {
	b = append(b, `{"results":[`...)
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, e := range row {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"probe":`...)
			b = strconv.AppendInt(b, int64(e.Probe), 10)
			b = append(b, `,"value":`...)
			if math.IsInf(e.Value, 0) || math.IsNaN(e.Value) {
				return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(e.Value, 'g', -1, 64)}
			}
			b = appendFloat(b, e.Value)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, "]}\n"...), nil
}

// appendUpdateResponse appends r encoded exactly as json.Marshal encodes
// it, plus the trailing newline writeJSON adds.
func appendUpdateResponse(b []byte, r updateResponse) []byte {
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, r.Epoch, 10)
	b = append(b, `,"live_probes":`...)
	b = strconv.AppendInt(b, int64(r.LiveProbes), 10)
	b = append(b, `,"ids":`...)
	if r.IDs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, id := range r.IDs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(id), 10)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

// appendFloat formats a finite float64 as encoding/json does: the shortest
// decimal that round-trips, in 'f' form for magnitudes in [1e-6, 1e21) and
// 'e' form otherwise, with a one-digit negative exponent unpadded (e-7, not
// e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
