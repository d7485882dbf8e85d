package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"vmalloc/internal/obs"
)

// This file is the HTTP edge both daemons share: the one place a request
// body is read, a query parameter parsed, a JSON answer or an error
// envelope written, and (Call) a request sent and its answer read.
// vmserve (internal/clusterhttp), vmgate (internal/shard) and vmload
// (internal/loadgen) call it and nothing else, so they cannot disagree on
// what parses or how a refusal looks.

// MaxBodyBytes caps every request body either daemon accepts (and every
// shard answer a vmgate buffers). A larger body is refused with 413.
const MaxBodyBytes = 8 << 20

// ErrBodyTooLarge is returned for a request body over MaxBodyBytes or an
// answer over Call's limit; WriteBadRequest maps it to 413 instead of 400
// — the request was refused for its size, not its syntax.
var ErrBodyTooLarge = errors.New("request body exceeds the configured limit")

// ReadBody reads a whole request body, refusing more than MaxBodyBytes
// with ErrBodyTooLarge. The Decode* functions parse what it returns.
func ReadBody(r io.Reader) ([]byte, error) {
	return readLimited(r, -1, MaxBodyBytes)
}

// Call sends req through hc and reads the answer, refusing more than
// limit bytes. A 2xx answer comes back as its header and body; any other
// status as the *Error DecodeError makes of it. A transport failure, or
// ErrBodyTooLarge for an answer over limit, comes back as it is.
func Call(hc *http.Client, req *http.Request, limit int64) (http.Header, []byte, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := readLimited(resp.Body, resp.ContentLength, limit)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, nil, DecodeError(resp.StatusCode, data)
	}
	return resp.Header, data, nil
}

// DecodeBody reads a request's body under the limit and parses it with
// one of the Decode* functions. A Content-Length over the limit is
// refused before a byte is read; one under it sizes the buffer.
func DecodeBody[T any](r *http.Request, parse func([]byte) (T, error)) (T, error) {
	data, err := readLimited(r.Body, r.ContentLength, MaxBodyBytes)
	if err != nil {
		var zero T
		return zero, err
	}
	return parse(data)
}

// readLimited reads r to its end, refusing more than limit bytes.
// declared is the length the sender announced, -1 for none (a chunked
// body). It sizes the buffer, so that ReadFrom, which wants MinRead free
// bytes before each read, never regrows it; only up to 64 KiB, so that
// announcing a length costs the sender's peer nothing until it is sent.
func readLimited(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared > limit {
		return nil, fmt.Errorf("%w (%d bytes)", ErrBodyTooLarge, limit)
	}
	buf := bytes.NewBuffer(make([]byte, 0, min(max(declared, 0), 64<<10)+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(r, limit+1)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) > limit {
		return nil, fmt.Errorf("%w (%d bytes)", ErrBodyTooLarge, limit)
	}
	return buf.Bytes(), nil
}

// QueryInt returns the named query parameter as a non-negative integer,
// or def when it is absent. Anything strconv.Atoi refuses — a sign, a
// fraction, trailing garbage — is an error.
func QueryInt(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s %q: want a non-negative integer", name, v)
	}
	return n, nil
}

// SpanFilterFromQuery parses the GET /v1/debug/traces query parameters
// (trace, name, op, min as a Go duration, limit).
func SpanFilterFromQuery(q url.Values) (obs.SpanFilter, error) {
	f := obs.SpanFilter{TraceID: q.Get("trace"), Name: q.Get("name"), Op: q.Get("op")}
	if v := q.Get("min"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return obs.SpanFilter{}, fmt.Errorf("bad min %q: want a non-negative duration", v)
		}
		f.MinDuration = d
	}
	var err error
	f.Limit, err = QueryInt(q, "limit", 0)
	return f, err
}

// WriteJSON writes v as the indented JSON every /v1 answer uses. An
// admit answer whose reasons need no escaping is appended directly
// (admit_codec.go), to the same bytes.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if resps, _ := v.([]AdmitResponse); len(resps) > 0 {
		// An accepted VM's entry is ≈100 bytes; a refused one carries its reason.
		if b, ok := appendAdmitResponses(make([]byte, 0, 128*len(resps)), resps); ok {
			w.Write(b) //nolint:errcheck // client gone
			return
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone
}

// WriteError writes an ErrorEnvelope with the request's id echoed, so a
// failure line in a client log joins the server's access log and flight
// recorder on one id.
func WriteError(w http.ResponseWriter, r *http.Request, status int, code string, err error) {
	RelayError(w, r, &Error{Status: status, Envelope: ErrorEnvelope{Code: code, Message: err.Error()}})
}

// RelayError writes an *Error — a vmgate passing on a shard's refusal —
// filling in this request's id when the envelope carries none.
func RelayError(w http.ResponseWriter, r *http.Request, e *Error) {
	env := e.Envelope
	if env.RequestID == "" {
		env.RequestID = obs.RequestID(r.Context())
	}
	WriteJSON(w, e.Status, env)
}

// WriteBadRequest refuses a request whose body did not read or parse,
// or whose path, query or header did not validate: 413 when it blew the
// size cap, 400 otherwise, both bad_request.
func WriteBadRequest(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, ErrBodyTooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	WriteError(w, r, status, CodeBadRequest, err)
}
