package api

import (
	"bytes"
	"encoding/binary"
	"math"
	"strconv"
)

// The plain-form codec for the one hot body pair, the POST /v1/vms request
// and its answer, both ways (vmserve reads requests and writes answers,
// vmgate and vmload the reverse). Not a second wire format: it reads and
// writes a subset of what encoding/json does for these two types, byte for
// byte, and calls the rest "not plain", whereupon the caller runs
// encoding/json, the reference (DESIGN.md, edge rule 2, says what holds
// the two together). If they disagree the plain form is narrowed.

// plainText reports whether encoding/json reads c inside a string as
// itself and writes it back as itself: printable ASCII but the quote, the
// backslash and the three bytes its HTML escaping rewrites.
func plainText(c byte) bool { return textBytes[c] }

var textBytes = func() (t [256]bool) {
	for c := byte(0x20); c <= 0x7e; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// plainString reports whether encoding/json writes s between its quotes
// as s itself.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainText(s[i]) {
			return false
		}
	}
	return true
}

// plain is a forward cursor over a body. Its methods skip JSON's
// four whitespace bytes, then consume exactly the form they name or
// report false (nil), and that is final: nothing is diagnosed here.
type plain struct {
	b []byte
	i int
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (p *plain) peek() byte {
	b, i := p.b, p.i
	if i < len(b) && b[i] > ' ' {
		return b[i]
	}
	for i+8 <= len(b) && binary.LittleEndian.Uint64(b[i:]) == 0x2020202020202020 {
		i += 8 // an indented body's deeper lines
	}
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	p.i = i
	if i == len(b) {
		return 0
	}
	return b[i]
}

func (p *plain) eat(c byte) bool {
	if p.peek() != c {
		return false
	}
	p.i++
	return true
}

// str consumes a quoted run of plainText bytes: no escape to undo.
func (p *plain) str() []byte {
	if !p.eat('"') {
		return nil
	}
	b, start, i := p.b, p.i, p.i
	for i < len(b) && plainText(b[i]) {
		i++
	}
	if i == len(b) || b[i] != '"' {
		return nil
	}
	p.i = i + 1
	return b[start:i]
}

// num consumes the run of bytes a JSON number without an exponent is made
// of, and returns it if it keeps the three rules JSON has and strconv has
// not: a digit first (after the minus), no zero before a digit, a digit
// last. The rest is strconv's to judge, by the call encoding/json makes
// for a field of that kind: a second point or minus, a point in an int
// or an overflow is an error there and false here.
func (p *plain) num() []byte {
	p.peek()
	start := p.i
	for p.i < len(p.b) && (p.b[p.i]-'0' <= 9 || p.b[p.i] == '-' || p.b[p.i] == '.') {
		p.i++
	}
	d := bytes.TrimPrefix(p.b[start:p.i], []byte("-"))
	if n := len(d); n == 0 || d[0]-'0' > 9 || d[n-1] == '.' || n > 1 && d[0] == '0' && d[1] != '.' {
		return nil
	}
	return p.b[start:p.i]
}

func (p *plain) int(v *int) bool {
	n, err := strconv.Atoi(string(p.num()))
	*v = n
	return err == nil
}

func (p *plain) float(v *float64) bool {
	f, err := strconv.ParseFloat(string(p.num()), 64)
	*v = f
	return err == nil
}

// bool consumes a true or false literal.
func (p *plain) bool(v *bool) bool {
	p.peek()
	*v = bytes.HasPrefix(p.b[p.i:], []byte("true"))
	lit := strconv.FormatBool(*v)
	ok := bytes.HasPrefix(p.b[p.i:], []byte(lit))
	p.i += len(lit)
	return ok
}

// object consumes {"key":value,...}. field consumes the value of a key
// it knows and names the key by a bit of its own; an unknown key, a key
// met twice in this object, a value that is not plain or, at the end, a
// bit of want not met ends the pass.
func (p *plain) object(want uint, field func(key []byte) (bit uint, ok bool)) bool {
	if !p.eat('{') {
		return false
	}
	seen := uint(0)
	for !p.eat('}') {
		if seen != 0 && !p.eat(',') {
			return false
		}
		key := p.str()
		if key == nil || !p.eat(':') {
			return false
		}
		bit, ok := field(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	return seen&want == want
}

// request consumes one AdmitRequest object: the five pinned keys spelled
// exactly (encoding/json also takes "ID"), each at most once, no null.
func (p *plain) request(r *AdmitRequest) bool {
	return p.object(0, func(key []byte) (uint, bool) {
		switch string(key) {
		case "id":
			return 1, p.int(&r.ID)
		case "type":
			s := p.str()
			r.Type = string(s)
			return 2, s != nil
		case "demand":
			return 4, p.object(0, func(key []byte) (uint, bool) {
				switch string(key) {
				case "cpu":
					return 1, p.float(&r.Demand.CPU)
				case "mem":
					return 2, p.float(&r.Demand.Mem)
				}
				return 0, false
			})
		case "start":
			return 8, p.int(&r.Start)
		case "durationMinutes":
			return 16, p.int(&r.DurationMinutes)
		}
		return 0, false
	})
}

// response consumes one AdmitResponse object: the six keys spelled
// exactly (encoding/json also takes "Accepted"), each at most once.
func (p *plain) response(r *AdmitResponse) bool {
	return p.object(0, func(key []byte) (uint, bool) {
		switch string(key) {
		case "id":
			return 1, p.int(&r.ID)
		case "accepted":
			return 2, p.bool(&r.Accepted)
		case "server":
			return 4, p.int(&r.Server)
		case "start":
			return 8, p.int(&r.Start)
		case "end":
			return 16, p.int(&r.End)
		case "reason":
			s := p.str()
			r.Reason = string(s)
			return 32, s != nil
		}
		return 0, false
	})
}

// plainList is DecodeAdmitRequests' and DecodeAdmitResponses' first try:
// one pass over a non-empty array (for requests, or one bare object) and
// nothing after it.
func plainList[T AdmitRequest | AdmitResponse](data []byte) ([]T, bool) {
	p := plain{b: data}
	array := p.eat('[')
	out := make([]T, 0, 1+len(data)/96) // either element is ≈98 bytes on the wire
	for more := true; more; more = array && p.eat(',') {
		out = append(out, *new(T))
		ok := false
		switch e := any(&out[len(out)-1]).(type) {
		case *AdmitRequest:
			ok = p.request(e)
		case *AdmitResponse:
			ok = array && p.response(e)
		}
		if !ok {
			return nil, false
		}
	}
	return out, (!array || p.eat(']')) && p.peek() == 0 && p.i == len(data)
}

// appendAdmitRequests appends the bytes json.Marshal writes for a
// non-empty reqs, or reports false when a Type holds a byte it would
// escape or a float is not plainFloat.
func appendAdmitRequests(dst []byte, reqs []AdmitRequest) ([]byte, bool) {
	open := "[{"
	for i := range reqs {
		r := &reqs[i]
		if !plainString(r.Type) || !plainFloat(r.Demand.CPU) || !plainFloat(r.Demand.Mem) {
			return nil, false
		}
		dst = append(dst, open...)
		if r.ID != 0 {
			dst = append(strconv.AppendInt(append(dst, `"id":`...), int64(r.ID), 10), ',')
		}
		if r.Type != "" {
			dst = append(append(append(dst, `"type":"`...), r.Type...), `",`...)
		}
		dst = strconv.AppendFloat(append(dst, `"demand":{"cpu":`...), r.Demand.CPU, 'f', -1, 64)
		dst = strconv.AppendFloat(append(dst, `,"mem":`...), r.Demand.Mem, 'f', -1, 64)
		dst = appendOmitEmpty(append(dst, '}'), `,"start":`, r.Start)
		dst = strconv.AppendInt(append(dst, `,"durationMinutes":`...), int64(r.DurationMinutes), 10)
		dst = append(dst, '}')
		open = ",{"
	}
	return append(dst, ']'), true
}

// plainFloat reports whether encoding/json writes f in AppendFloat's 'f'
// form: 0 and 1e-6 ≤ |f| < 1e21 (any other has an exponent, or is NaN/Inf).
func plainFloat(f float64) bool {
	a := math.Abs(f)
	return a == 0 || a >= 1e-6 && a < 1e21
}

// appendAdmitResponses appends the bytes json.Encoder with
// SetIndent("", "  ") writes for a non-empty resps, or reports false
// when a Reason holds a byte the encoder would escape.
func appendAdmitResponses(dst []byte, resps []AdmitResponse) ([]byte, bool) {
	open := "[\n  {\n    \"id\": "
	for i := range resps {
		r := &resps[i]
		dst = strconv.AppendInt(append(dst, open...), int64(r.ID), 10)
		dst = strconv.AppendBool(append(dst, ",\n    \"accepted\": "...), r.Accepted)
		dst = appendOmitEmpty(dst, ",\n    \"server\": ", r.Server)
		dst = appendOmitEmpty(dst, ",\n    \"start\": ", r.Start)
		dst = appendOmitEmpty(dst, ",\n    \"end\": ", r.End)
		if r.Reason != "" {
			if !plainString(r.Reason) {
				return nil, false
			}
			dst = append(append(append(dst, ",\n    \"reason\": \""...), r.Reason...), '"')
		}
		dst = append(dst, "\n  }"...)
		open = ",\n  {\n    \"id\": "
	}
	return append(dst, "\n]\n"...), true
}

func appendOmitEmpty(dst []byte, key string, v int) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}
