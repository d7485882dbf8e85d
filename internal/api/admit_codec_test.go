package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"vmalloc/internal/model"
)

var update = flag.Bool("update", false, "rewrite testdata/admit_response.golden from this build's WriteJSON")

// goldenBatch is a mixed admission answer: accepted, rejected with a
// plain reason, rejected with a reason encoding/json escapes (<, ", a
// non-ASCII rune), and an accepted VM on server 0 at minute 0, whose
// zero fields omitempty drops.
var goldenBatch = []AdmitResponse{
	{ID: 1, Accepted: true, Server: 12, Start: 3, End: 42},
	{ID: 2, Reason: "no server has capacity for vm 2"},
	{ID: 3, Reason: `demand <cpu "9"> exceeds every server — refused`},
	{ID: 4, Accepted: true, End: 7},
}

// TestAdmitResponseGolden pins the bytes POST /v1/vms answers with. The
// golden was written by encoding/json alone (the commit before the plain
// codec), so it holds whatever WriteJSON does inside to that encoding:
// the whole batch through the fallback (entry 3 needs escaping), and the
// batch without entry 3 through the plain encoder.
func TestAdmitResponseGolden(t *testing.T) {
	served := func(v any) []byte {
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, v)
		return rec.Body.Bytes()
	}
	got := served(goldenBatch)
	const path = "testdata/admit_response.golden"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("served bytes moved:\n got: %q\nwant: %q", got, want)
	}
	entry3 := referenceJSON(t, goldenBatch[2:3])
	entry3 = append([]byte("  "), entry3[len("[\n  "):len(entry3)-len("\n]\n")]...)
	if !bytes.Contains(want, entry3) {
		t.Fatalf("golden lacks entry 3 as %q", entry3)
	}
	plainBatch := append(append([]AdmitResponse(nil), goldenBatch[:2]...), goldenBatch[3])
	if _, ok := appendAdmitResponses(nil, plainBatch); !ok {
		t.Fatal("the batch without the escaped reason is not plain")
	}
	wantPlain := bytes.Replace(want, append(entry3, ",\n"...), nil, 1)
	if got := served(plainBatch); string(got) != string(wantPlain) {
		t.Fatalf("plain-encoded bytes moved:\n got: %q\nwant: %q", got, wantPlain)
	}
}

// referenceJSON is what WriteJSON wrote for every value before the admit
// answer had a plain encoder, and still writes for every other.
func referenceJSON(t testing.TB, v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fillFields sets every field under v, recursively, to a distinct
// non-zero value, so no field can hide behind omitempty or a zero.
func fillFields(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillFields(t, v.Field(i), n)
		}
	case reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprint("field ", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillFields(t, v.Index(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillFields(t, v.Elem(), n)
	default:
		t.Fatalf("a %s field: teach fillFields and the codec its kind", v.Kind())
	}
}

// TestAdmitCodecCoversEveryField: with every field of both hot types set,
// each direction of the codec must agree with encoding/json: the plain
// pass must read what json.Marshal wrote, EncodeAdmitRequests must write
// what json.Marshal writes, the plain encoder must write what json.Encoder
// writes and DecodeAdmitResponses must read it back. A field added to
// either struct without the codec fails here instead of vanishing from
// the fast path or from the wire.
func TestAdmitCodecCoversEveryField(t *testing.T) {
	var req AdmitRequest
	var resp AdmitResponse
	n := 0
	fillFields(t, reflect.ValueOf(&req).Elem(), &n)
	fillFields(t, reflect.ValueOf(&resp).Elem(), &n)

	object, _ := json.Marshal(req)
	array, _ := json.Marshal([]AdmitRequest{req, req})
	for body, want := range map[string][]AdmitRequest{string(object): {req}, string(array): {req, req}} {
		got, ok := plainList[AdmitRequest]([]byte(body))
		if !ok {
			t.Fatalf("the plain pass refuses %s: does admit_codec.go know every key?", body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("plain pass of %s:\n got: %+v\nwant: %+v", body, got, want)
		}
	}
	for _, reqs := range [][]AdmitRequest{{req}, {req, {}, req}} {
		if _, ok := appendAdmitRequests(nil, reqs); !ok {
			t.Fatalf("the plain encoder refuses %+v", reqs)
		}
		got, err := EncodeAdmitRequests(reqs)
		if want, _ := json.Marshal(reqs); err != nil || string(got) != string(want) {
			t.Fatalf("request encoder (err %v):\n got: %s\nwant: %s", err, got, want)
		}
	}
	for _, resps := range [][]AdmitResponse{{resp}, {resp, {}, resp}} {
		got, ok := appendAdmitResponses(nil, resps)
		if want := referenceJSON(t, resps); !ok || string(got) != string(want) {
			t.Fatalf("plain encoder (ok %v):\n got: %q\nwant: %q", ok, got, want)
		}
		if _, ok := plainList[AdmitResponse](got); !ok {
			t.Fatalf("the plain pass refuses %s: does admit_codec.go know every key?", got)
		}
		back, err := DecodeAdmitResponses(got)
		if err != nil || !reflect.DeepEqual(back, resps) {
			t.Fatalf("answer decoder (err %v):\n got: %+v\nwant: %+v", err, back, resps)
		}
	}
}

// TestPlainAdmitForm: which bodies take the one pass, in each direction.
// What the tree sends must (or the codec buys nothing); each way out of
// the plain form named in admit_codec.go must not. Whether the two paths
// agree on a body is FuzzHTTPDecode's question (internal/clusterhttp).
func TestPlainAdmitForm(t *testing.T) {
	one := AdmitRequest{ID: 3, Type: "c4.large", Demand: model.Resources{CPU: 2, Mem: 7.5}, DurationMinutes: 30}
	object, _ := json.Marshal(one)
	array, _ := json.Marshal([]AdmitRequest{one, {Demand: model.Resources{CPU: 0.5, Mem: 1}, Start: 4, DurationMinutes: 1}})
	indented, _ := json.MarshalIndent([]AdmitRequest{one}, "", "\t")
	for _, body := range []string{string(object), string(array), string(indented) + "\r\n", `{}`, `[{}]`,
		`{"demand":{},"start":-0,"durationMinutes":-12}`, `{"demand":{"mem":-0.25,"cpu":10}}`, `{"demand":{"cpu":-0.0,"mem":0.5}}`, `{"id":0,"start":-0}`} {
		if _, ok := plainList[AdmitRequest]([]byte(body)); !ok {
			t.Errorf("not plain, but should be: %s", body)
		}
	}
	for _, body := range []string{``, ` `, `null`, `[]`, `[] `, `[null]`, `{"ID":1}`, `{"id":1,"id":2}`, `{"demand":null}`,
		`{"type":null}`, `{"id":1e2}`, `{"id":1.0}`, `{"id":01}`, `{"id":-}`, `{"id":+1}`, `{"id":9223372036854775808}`,
		`{"demand":{"cpu":1e2}}`, `{"demand":{"cpu":9e999}}`, `{"demand":{"cpu":1.}}`, `{"demand":{"cpu":.5}}`,
		`{"demand":{"cpu":-.5}}`, `{"demand":{"cpu":1.2.3}}`, `{"demand":{"cpu":1..2}}`, `{"demand":{"cpu":0.}}`, `{"demand":{"cpu":00.5}}`,
		`{"demand":{"cpu":1-1}}`, `{"demand":{"cpu":--1}}`, `{"demand":{"cpu":1.-5}}`, `{"id":--1}`, `{"id":1-1}`, `{"id":0-}`, `{"id":-01}`, `{"id":00}`,
		`{"demand":{"cpu":1,"cpu":2}}`, `{"demand":{"cpu":1,"disk":2}}`, `{"demand":[1,2]}`,
		`{"type":"\u0041"}`, `{"type":"a\\b"}`, `{"type":"a<b"}`, "{\"type\":\"\xff\"}", "{\"type\":\"a\tb\"}", `{"type":"a`,
		`{"id":1}x`, `{"id":1}{"id":2}`, `[{"id":1}]]`, `[{"id":1},]`, `[{"id":1}`, `{"id":1,}`, `{"id":1 "start":2}`,
		`{"id" 1}`, `{id:1}`, `{"futureKnob":true}`, "\v{}", "{}\x00", `[1]`, `"x"`} {
		if _, ok := plainList[AdmitRequest]([]byte(body)); ok {
			t.Errorf("plain, but should fall back: %q", body)
		}
	}
	for _, body := range []string{string(referenceJSON(t, []AdmitResponse{{ID: 1, Accepted: true, Server: 2, Start: 3, End: 4}, {ID: 5, Reason: "full"}})),
		`[{"id":1,"accepted":false}]`, `[{"reason":"","end":-0,"accepted":true}]`, ` [ {} ] `} {
		if _, ok := plainList[AdmitResponse]([]byte(body)); !ok {
			t.Errorf("answer not plain, but should be: %s", body)
		}
	}
	for _, body := range []string{``, `null`, `[]`, `{}`, `{"id":1}`, `[null]`, `[{"accepted":True}]`, `[{"accepted":truex}]`,
		`[{"accepted":"true"}]`, `[{"accepted":null}]`, `[{"Accepted":true}]`, `[{"server":1,"server":2}]`, `[{"reason":"\u0041"}]`,
		`[{"reason":null}]`, `[{"end":1.5}]`, `[{"state":"up"}]`, `[{}]]`, `[{}] x`, `[{},]`} {
		if _, ok := plainList[AdmitResponse]([]byte(body)); ok {
			t.Errorf("answer plain, but should fall back: %q", body)
		}
	}
	plainReq := AdmitRequest{ID: 3, Type: "c4.large", Demand: model.Resources{CPU: 1e-6, Mem: -2.5e20}, Start: -1, DurationMinutes: 30}
	got, ok := appendAdmitRequests(nil, []AdmitRequest{plainReq, {}})
	if want, _ := json.Marshal([]AdmitRequest{plainReq, {}}); !ok || string(got) != string(want) {
		t.Errorf("plain floats and type (ok %v):\n got: %s\nwant: %s", ok, got, want)
	}
	for _, r := range []AdmitRequest{{Type: "a<b"}, {Type: "é"}, {Demand: model.Resources{CPU: 1e21}}, {Demand: model.Resources{Mem: 9e-7}},
		{Demand: model.Resources{CPU: math.NaN()}}, {Demand: model.Resources{Mem: math.Inf(-1)}}} {
		if _, ok := appendAdmitRequests(nil, []AdmitRequest{plainReq, r}); ok {
			t.Errorf("request %+v took the plain encoder", r)
		}
	}
	if _, ok := appendAdmitResponses(nil, []AdmitResponse{{Reason: "online: no server can host vm 7"}}); !ok {
		t.Error("a printable reason is not plain")
	}
	for _, reason := range []string{`"`, `\`, `<`, `>`, `&`, "\n", "\x7f", "é", "\xff"} {
		if _, ok := appendAdmitResponses(nil, []AdmitResponse{{Reason: reason}}); ok {
			t.Errorf("reason %q took the plain encoder", reason)
		}
	}
}

// BenchmarkAdmitCodec: the admit body pair in both directions, through
// the plain codec and through encoding/json (the reference, and the
// fallback): vmserve's decode and encode, and the gate's encode-requests
// and decode-answer. Sizes are a single admit, one shard's share of a
// gate-mixed call (13) and a serve-batch minute (49).
func BenchmarkAdmitCodec(b *testing.B) {
	for _, vms := range []int{1, 13, 49} {
		reqs := make([]AdmitRequest, vms)
		resps := make([]AdmitResponse, vms)
		for i := range reqs {
			reqs[i] = AdmitRequest{ID: 100000 + i, Type: "m1.small", Demand: model.Resources{CPU: 1, Mem: 1.7}, Start: 1440, DurationMinutes: 37 + i}
			resps[i] = AdmitResponse{ID: 100000 + i, Accepted: true, Server: 1 + i, Start: 1440, End: 1476 + i}
		}
		// fallback is the same body with one unknown key: the plain pass
		// gives up at it and encoding/json does all the work.
		body, _ := json.Marshal(reqs)
		fallback := append([]byte(`[{"x":0},`), body[1:]...)
		if vms == 1 {
			body, _ = json.Marshal(reqs[0])
			fallback = append([]byte(`{"x":0,`), body[1:]...)
		}
		escaped := append([]AdmitResponse(nil), resps...)
		escaped[0].Reason = "<"
		run := func(name string, n int, op func()) {
			b.Run(fmt.Sprintf("%s/vms=%d", name, vms), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					op()
				}
			})
		}
		run("decode/plain", len(body), func() {
			if _, err := DecodeAdmitRequests(body); err != nil {
				b.Fatal(err)
			}
		})
		run("decode/reference", len(fallback), func() {
			if _, err := DecodeAdmitRequests(fallback); err != nil {
				b.Fatal(err)
			}
		})
		rec := httptest.NewRecorder()
		run("encode/plain", len(referenceJSON(b, resps)), func() {
			rec.Body.Reset()
			WriteJSON(rec, http.StatusOK, resps)
		})
		run("encode/reference", len(referenceJSON(b, escaped)), func() {
			rec.Body.Reset()
			WriteJSON(rec, http.StatusOK, escaped)
		})
		marshaled, _ := json.Marshal(reqs)
		run("encode-requests/plain", len(marshaled), func() {
			if _, err := EncodeAdmitRequests(reqs); err != nil {
				b.Fatal(err)
			}
		})
		run("encode-requests/reference", len(marshaled), func() {
			if _, err := json.Marshal(reqs); err != nil {
				b.Fatal(err)
			}
		})
		answer := referenceJSON(b, resps)
		run("decode-answer/plain", len(answer), func() {
			if _, err := DecodeAdmitResponses(answer); err != nil {
				b.Fatal(err)
			}
		})
		run("decode-answer/reference", len(answer), func() {
			var v []AdmitResponse
			if err := json.Unmarshal(answer, &v); err != nil {
				b.Fatal(err)
			}
		})
	}
}
