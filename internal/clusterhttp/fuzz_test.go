package clusterhttp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"vmalloc/internal/api"
)

// referenceDecode is api.DecodeAdmitRequests as it stood before it had a
// plain pass: encoding/json alone. The fuzz target holds the function to
// it; it is never adjusted to fit the function.
func referenceDecode(data []byte) ([]api.AdmitRequest, error) {
	if bytes.HasPrefix(bytes.TrimSpace(data), []byte("[")) {
		var reqs []api.AdmitRequest
		if err := json.Unmarshal(data, &reqs); err != nil {
			return nil, fmt.Errorf("parse request array: %w", err)
		}
		if len(reqs) == 0 {
			return nil, errors.New("empty request array")
		}
		return reqs, nil
	}
	var req api.AdmitRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("parse request: %w", err)
	}
	return []api.AdmitRequest{req}, nil
}

// referenceEncode is the body api.WriteJSON wrote before the admit answer
// had a plain encoder.
func referenceEncode(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // a bytes.Buffer and a marshalable value
	return buf.Bytes()
}

// checkAnswerDecode holds api.DecodeAdmitResponses, the vmgate's reader
// of a shard's answer, to json.Unmarshal: the same accept or refuse, the
// same error text, the same value.
func checkAnswerDecode(t *testing.T, data []byte) {
	t.Helper()
	got, err := api.DecodeAdmitResponses(data)
	var want []api.AdmitResponse
	wantErr := json.Unmarshal(data, &want)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("answer accept/refuse diverged on %q: %v, encoding/json alone: %v", data, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("answer values diverged on %q:\n got: %#v\nwant: %#v", data, got, want)
	}
}

// FuzzHTTPDecode hammers the admit codec — the body pair of POST /v1/vms,
// shared verbatim by vmserve, the vmgate router and its shard calls, and
// the load generator — with arbitrary bytes, differentially against
// encoding/json alone. api.DecodeAdmitRequests (a plain one-pass reader
// with encoding/json behind it) must accept exactly what encoding/json
// accepts, with the same values, and refuse the rest with the same error
// text. What it decoded, encoded again by api.EncodeAdmitRequests, must be
// json.Marshal's bytes or error. The answer to it, encoded by
// api.WriteJSON, must be encoding/json's bytes. api.DecodeAdmitResponses
// must read both the fuzz bytes and that answer as json.Unmarshal does. A
// divergence is fixed by narrowing the plain form in
// internal/api/admit_codec.go, never here. The size cap is not the
// parser's job: api.ReadBody enforces it before any parse
// (api.TestReadLimited).
func FuzzHTTPDecode(f *testing.F) {
	f.Add(`{"demand":{"cpu":1,"mem":1},"durationMinutes":30}`)
	f.Add(`[{"id":1,"demand":{"cpu":1,"mem":1},"durationMinutes":30}]`)
	f.Add(`[{"id":1,"durationMinutes":5},{"id":1,"durationMinutes":5}]`) // duplicate ids
	f.Add(`[{"id":7,"type":"c4.large","demand":{"cpu":2.5,"mem":7.5},"start":3,"durationMinutes":40}, {} ]`)
	f.Add(`[]`)
	f.Add(`{`)
	f.Add(`null`)
	f.Add(`  [ {"durationMinutes": 1} ] `)
	f.Add(strings.Repeat(`[`, 10000))                                         // deep nesting
	f.Add(`{"type":"` + strings.Repeat("x", 4096) + `","durationMinutes":1}`) // long field
	f.Add(`[{"durationMinutes":9e999}]`)                                      // float overflow
	f.Add("\xff\xfe\x00")                                                     // not UTF-8
	// One seed per way out of the plain form.
	f.Add(`{"ID":4,"durationMinutes":1}`)        // a key encoding/json folds
	f.Add(`{"id":1,"id":2,"durationMinutes":1}`) // duplicate key: the last wins
	f.Add(`{"demand":null,"durationMinutes":1}`) // null leaves the field alone
	f.Add(`[null]`)
	f.Add(`{"durationMinutes":1e2}`)                     // exponent into an int: a type error
	f.Add(`{"demand":{"cpu":1e2,"mem":1.5e-3}}`)         // exponent into a float: a value
	f.Add(`{"durationMinutes":01}`)                      // leading zero
	f.Add(`{"start":-0,"demand":{"cpu":-0,"mem":-0.0}}`) // minus zero
	f.Add(`{"demand":{"cpu":9e999}}`)                    // float out of range
	f.Add(`{"demand":{"cpu":1e-7,"mem":1e21}}`)          // floats json.Marshal writes with an exponent
	f.Add(`{"id":9223372036854775808}`)                  // int out of range
	f.Add(`{"type":"\u0041"}`)                           // an escape
	f.Add(`{"type":"a<b"}`)                              // a byte the encoder rewrites
	f.Add("{\"type\":\"\xff\"}")                         // a byte ≥ 0x80
	f.Add("{\"type\":\"a\tb\"}")                         // a control byte
	f.Add(`[] `)                                         // the empty array has its own error
	f.Add(`{"durationMinutes":1}x`)                      // trailing bytes
	f.Add(`[{"durationMinutes":1}]]`)
	f.Add(`{"demand":{"cpu":1,"cpu":2}}`)            // duplicate key one level down
	f.Add(`{"demand":{"cpu":1,"disk":2}}`)           // unknown key one level down
	f.Add(`{"durationMinutes":1,"futureKnob":true}`) // unknown key
	f.Add(`{"durationMinutes":1,}`)                  // syntax errors
	f.Add(`{"durationMinutes":1 "start":2}`)
	f.Add(`{"durationMinutes":1.}`)
	f.Add(`{"durationMinutes":-}`)
	f.Add(`{"id":1-1,"start":--1,"demand":{"cpu":1.2.3,"mem":-.5}}`)
	f.Add("\v{\"durationMinutes\":1}")       // whitespace that is not JSON's
	f.Add("\u00a0[{\"durationMinutes\":1}]") // …that bytes.TrimSpace trims
	// The answer side: the golden answer (one reason escaped), and one
	// seed per way out of its plain form.
	golden, err := os.ReadFile("../api/testdata/admit_response.golden")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(golden))
	f.Add(`[{"id":1,"accepted":true,"server":2,"start":3,"end":4},{"id":5,"accepted":false,"reason":"full"}]`)
	f.Add(`[{"id":1,"accepted":True}]`)                    // a literal spelled wrong
	f.Add(`[{"id":1,"accepted":false,"reason":"\u0041"}]`) // an escape
	f.Add(`[{"id":1,"accepted":true,"server":2,"server":3}]`)
	f.Add(`[{"id":1,"accepted":true}]]`) // trailing bytes
	f.Add(`[{"id":1,"Accepted":true,"state":"up"}]`)
	f.Add(`[{"id":1,"accepted":null}]`)

	f.Fuzz(func(t *testing.T, body string) {
		checkAnswerDecode(t, []byte(body))
		reqs, err := api.DecodeAdmitRequests([]byte(body))
		want, wantErr := referenceDecode([]byte(body))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("accept/refuse diverged: %v, encoding/json alone: %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if len(reqs) == 0 {
			t.Fatal("nil error but zero requests")
		}
		if !reflect.DeepEqual(reqs, want) {
			t.Fatalf("values diverged:\n got: %+v\nwant: %+v", reqs, want)
		}
		enc, err := api.EncodeAdmitRequests(reqs)
		wantEnc, wantErr := json.Marshal(reqs)
		if !bytes.Equal(enc, wantEnc) || (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("request bytes diverged:\n got: %q (%v)\nwant: %q (%v)", enc, err, wantEnc, wantErr)
		}
		resps := make([]api.AdmitResponse, len(reqs))
		for i, r := range reqs {
			resps[i] = api.AdmitResponse{
				ID: r.ID, Accepted: r.Start != 0, Server: r.Start,
				Start: r.DurationMinutes, End: r.ID, Reason: r.Type,
			}
		}
		rec := httptest.NewRecorder()
		api.WriteJSON(rec, http.StatusOK, resps)
		if got, want := rec.Body.Bytes(), referenceEncode(resps); !bytes.Equal(got, want) {
			t.Fatalf("answer bytes diverged:\n got: %q\nwant: %q", got, want)
		}
		checkAnswerDecode(t, rec.Body.Bytes())
	})
}
