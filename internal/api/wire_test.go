package api

import (
	"encoding/json"
	"errors"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"vmalloc/internal/energy"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
)

// populated returns one fully populated value per wire type. Every field
// is non-zero so the round-trip test cannot pass by accident through
// omitempty.
func populated() map[string]any {
	vm := model.VM{ID: 7, Type: "c4.large", Demand: model.Resources{CPU: 2, Mem: 4}, Start: 3, End: 42}
	st := &StateResponse{
		Now: 9, Policy: "mincost", IdleTimeout: 2,
		Admitted: 5, Released: 1, Migrations: 2, MigrationSaved: 1.25,
		Transitions: 3, ServersUsed: 2,
		Energy:      energy.Breakdown{Run: 1.5, Idle: 2.25, Transition: 0.5},
		TotalEnergy: 4.25, TotalStartDelay: 6, MaxStartDelay: 4,
		Servers: []ServerState{{ID: 1, Type: "A", State: "active", VMs: 2}},
		VMs:     []PlacedVM{{VM: vm, Server: 0, Start: 3}},
	}
	mig := MigrationRecord{
		Seq: 11, VM: 7, From: 1, To: 2, Time: 9, Handoff: 10, Start: 3, End: 42,
		Policy: PolicyMinMigrationTime, SavedWattMinutes: 3.5, CostWattMinutes: 0.4, Shard: "a",
	}
	target := 2
	now := 17
	return map[string]any{
		"AdmitRequest":  &AdmitRequest{ID: 7, Type: "c4.large", Demand: model.Resources{CPU: 2, Mem: 4}, Start: 3, DurationMinutes: 40},
		"AdmitResponse": &AdmitResponse{ID: 7, Accepted: true, Server: 2, Start: 3, End: 42, Reason: "x"},
		"ReleaseResponse": &ReleaseResponse{
			VM: vm, Server: 1, Start: 3,
		},
		"ClockRequest":       &ClockRequest{Now: &now},
		"ClockResponse":      &ClockResponse{Now: 17},
		"StateResponse":      st,
		"MigrateRequest":     &MigrateRequest{VM: 7, Server: &target},
		"ConsolidateRequest": &ConsolidateRequest{Policy: PolicyMinUtilization, MaxMoves: 3},
		"ConsolidateResponse": &ConsolidateResponse{
			Clock: 9, Policy: PolicyMinMigrationTime, Donors: 2, Executed: 1,
			EnergySavedWattMinutes: 3.5, Moves: []MigrationRecord{mig},
		},
		"MigrationsResponse": &MigrationsResponse{Count: 4, Migrations: []MigrationRecord{mig}},
		"DecisionsResponse": &DecisionsResponse{Count: 1, Decisions: []obs.Decision{{
			Seq: 1, RequestID: "abc", Batch: 2, Op: obs.OpAdmit, VM: 7, Server: 2,
			Start: 3, End: 42, Clock: 3, Candidates: 4, Infeasible: 1,
		}}},
		"ShardsResponse": &ShardsResponse{Count: 1, Shards: []ShardHealth{{Name: "a", Addr: "http://x", Healthy: true, Error: "e"}}},
		"GateStateResponse": &GateStateResponse{
			Now: 9, Admitted: 5, Released: 1, Migrations: 2, MigrationSaved: 1.25,
			Residents: 4, ServersUsed: 2,
			TotalEnergy: 4.25, Digest: "d",
			Shards: []ShardState{{Shard: "a", Addr: "http://x", Digest: "d1", State: st}},
		},
		"ErrorEnvelope": &ErrorEnvelope{Code: CodeShardDown, Message: "shard b down", RequestID: "abc"},
	}
}

// TestRoundTrip: encode → decode → re-encode must be the identity for
// every wire type, so nothing is lost crossing the wire in either
// direction.
func TestRoundTrip(t *testing.T) {
	for name, v := range populated() {
		t.Run(name, func(t *testing.T) {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			out := reflect.New(reflect.TypeOf(v).Elem()).Interface()
			if err := json.Unmarshal(b, out); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(v, out) {
				t.Fatalf("round trip diverged:\n in: %+v\nout: %+v", v, out)
			}
			b2, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != string(b2) {
				t.Fatalf("re-encode diverged:\n in: %s\nout: %s", b, b2)
			}
		})
	}
}

// TestUnknownFieldTolerance: every wire type must decode bodies carrying
// fields it does not know — additive server-side evolution within /v1
// must not break deployed clients.
func TestUnknownFieldTolerance(t *testing.T) {
	for name, v := range populated() {
		t.Run(name, func(t *testing.T) {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			// Splice an unknown field into the top-level object.
			widened := `{"someFutureField":{"nested":[1,2,3]},` + strings.TrimPrefix(string(b), "{")
			out := reflect.New(reflect.TypeOf(v).Elem()).Interface()
			if err := json.Unmarshal([]byte(widened), out); err != nil {
				t.Fatalf("decode with unknown field: %v", err)
			}
			if !reflect.DeepEqual(v, out) {
				t.Fatalf("unknown field corrupted decode:\n in: %+v\nout: %+v", v, out)
			}
		})
	}
}

// TestWireFieldNames pins the JSON key set of each type against the
// names the pre-api anonymous structs put on the wire. A failure here is
// a breaking change to deployed clients: add a /v2 instead.
func TestWireFieldNames(t *testing.T) {
	pins := map[string][]string{
		"AdmitRequest":        {"id", "type", "demand", "start", "durationMinutes"},
		"AdmitResponse":       {"id", "accepted", "server", "start", "end", "reason"},
		"ReleaseResponse":     {"vm", "server", "start"},
		"ClockRequest":        {"now"},
		"ClockResponse":       {"now"},
		"StateResponse":       {"now", "policy", "idleTimeoutMinutes", "admitted", "released", "migrations", "migrationSavedWattMinutes", "transitions", "serversUsed", "energy", "totalEnergyWattMinutes", "totalStartDelayMinutes", "maxStartDelayMinutes", "servers", "vms"},
		"DecisionsResponse":   {"count", "decisions"},
		"ErrorEnvelope":       {"code", "error", "requestId"},
		"MigrateRequest":      {"vm", "server"},
		"ConsolidateRequest":  {"policy", "maxMoves"},
		"ConsolidateResponse": {"clock", "policy", "donors", "executed", "energySavedWattMinutes", "moves"},
		"MigrationsResponse":  {"count", "migrations"},
	}
	vals := populated()
	for name, want := range pins {
		t.Run(name, func(t *testing.T) {
			b, err := json.Marshal(vals[name])
			if err != nil {
				t.Fatal(err)
			}
			var m map[string]json.RawMessage
			if err := json.Unmarshal(b, &m); err != nil {
				t.Fatal(err)
			}
			for _, key := range want {
				if _, ok := m[key]; !ok {
					t.Errorf("wire key %q missing from %s", key, b)
				}
				delete(m, key)
			}
			for key := range m {
				t.Errorf("unexpected wire key %q in %s", key, name)
			}
		})
	}
}

// TestDecodeAdmitRequests covers the shared body decoder: object vs
// array form and rejection of empty arrays.
func TestDecodeAdmitRequests(t *testing.T) {
	one := `{"id":3,"demand":{"cpu":1,"mem":1},"durationMinutes":30}`
	reqs, err := DecodeAdmitRequests([]byte(one))
	if err != nil || len(reqs) != 1 || reqs[0].ID != 3 {
		t.Fatalf("single object: %v %+v", err, reqs)
	}
	reqs, err = DecodeAdmitRequests([]byte("[" + one + "," + one + "]"))
	if err != nil || len(reqs) != 2 {
		t.Fatalf("array: %v %+v", err, reqs)
	}
	if _, err := DecodeAdmitRequests([]byte("[]")); err == nil {
		t.Fatal("empty array accepted")
	}
	// Unknown fields inside an admission body are tolerated.
	if _, err := DecodeAdmitRequests([]byte(`{"durationMinutes":1,"futureKnob":true}`)); err != nil {
		t.Fatalf("unknown field refused: %v", err)
	}
}

// TestDecodeMigrateRequest covers the POST /v1/migrations body decoder:
// required fields and unknown-field tolerance.
func TestDecodeMigrateRequest(t *testing.T) {
	req, err := DecodeMigrateRequest([]byte(`{"vm":7,"server":2,"future":1}`))
	if err != nil || req.VM != 7 || req.Server == nil || *req.Server != 2 {
		t.Fatalf("valid body: %v %+v", err, req)
	}
	if _, err := DecodeMigrateRequest([]byte(`{"server":2}`)); err == nil {
		t.Fatal("missing vm accepted")
	}
	if _, err := DecodeMigrateRequest([]byte(`{"vm":7}`)); err == nil {
		t.Fatal("missing server accepted")
	}
}

// TestDecodeConsolidateRequest: an empty (or whitespace) body is the zero
// request; policies are validated at decode time.
func TestDecodeConsolidateRequest(t *testing.T) {
	req, err := DecodeConsolidateRequest([]byte("  \n"))
	if err != nil || req.Policy != "" || req.MaxMoves != 0 {
		t.Fatalf("empty body: %v %+v", err, req)
	}
	req, err = DecodeConsolidateRequest([]byte(`{"policy":"min-utilization","maxMoves":3}`))
	if err != nil || req.Policy != PolicyMinUtilization || req.MaxMoves != 3 {
		t.Fatalf("valid body: %v %+v", err, req)
	}
	if _, err := DecodeConsolidateRequest([]byte(`{"policy":"random"}`)); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := DecodeConsolidateRequest([]byte(`{"maxMoves":-1}`)); err == nil {
		t.Fatal("negative maxMoves accepted")
	}
}

// TestDecodeClockRequest: the whole body must be one object carrying
// "now" — a stream decoder would accept the trailing garbage.
func TestDecodeClockRequest(t *testing.T) {
	req, err := DecodeClockRequest([]byte(` {"now": 5, "future": 1} `))
	if err != nil || req.Now == nil || *req.Now != 5 {
		t.Fatalf("valid body: %v %+v", err, req)
	}
	for _, bad := range []string{``, `{}`, `{"now":null}`, `{"now":5}garbage`, `{"now":5}{"now":6}`, `{"now":"5"}`} {
		if _, err := DecodeClockRequest([]byte(bad)); err == nil {
			t.Errorf("body %q accepted", bad)
		}
	}
}

// TestReadLimited: a body of exactly the limit passes, one byte more is
// ErrBodyTooLarge whatever its syntax. A declared length over the limit
// is refused before a byte is read; one under it is a size hint the body
// is still held to the limit against, and presizes the buffer.
func TestReadLimited(t *testing.T) {
	for _, row := range []struct {
		body     string
		declared int64
		tooLarge bool
		reads    int // bytes taken from the reader
	}{
		{"12345678", -1, false, 8},
		{"123456789", -1, true, 9},
		{"12345678", 8, false, 8},
		{"123456789", 9, true, 0},
		{"123456789", 4, true, 9}, // a sender that announced less than it sent
		{"", 0, false, 0},
		{"", 1 << 40, true, 0},
	} {
		r := strings.NewReader(row.body)
		data, err := readLimited(r, row.declared, 8)
		if row.tooLarge != errors.Is(err, ErrBodyTooLarge) || !row.tooLarge && (err != nil || string(data) != row.body) {
			t.Errorf("body %q declared %d: %v %q", row.body, row.declared, err, data)
		}
		if got := len(row.body) - r.Len(); got != row.reads {
			t.Errorf("body %q declared %d: read %d bytes, want %d", row.body, row.declared, got, row.reads)
		}
	}
	body := strings.Repeat("x", 4800) // a 49-VM batch
	if n := testing.AllocsPerRun(20, func() { readLimited(strings.NewReader(body), 4800, MaxBodyBytes) }); n > 3 {
		t.Errorf("a body of the declared length: %v allocations, want this reader, its limiter and one buffer", n)
	}
}

// TestQueryInt: absent is the default; anything but a non-negative
// decimal integer is refused (fmt.Sscanf("%d") used to accept "5abc").
func TestQueryInt(t *testing.T) {
	q := url.Values{"limit": {"7"}, "zero": {"0"}}
	if n, err := QueryInt(q, "limit", 0); err != nil || n != 7 {
		t.Fatalf("limit=7: %d %v", n, err)
	}
	if n, err := QueryInt(q, "zero", 3); err != nil || n != 0 {
		t.Fatalf("zero=0: %d %v", n, err)
	}
	if n, err := QueryInt(q, "since", -1); err != nil || n != -1 {
		t.Fatalf("absent: %d %v", n, err)
	}
	for _, bad := range []string{"-1", "5abc", "1.5", "x", " 3", "+"} {
		if _, err := QueryInt(url.Values{"limit": {bad}}, "limit", 0); err == nil {
			t.Errorf("limit=%q accepted", bad)
		}
	}
}

// TestSpanFilterFromQuery: every /v1/debug/traces parameter lands in the
// filter, and a bad min or limit is refused.
func TestSpanFilterFromQuery(t *testing.T) {
	f, err := SpanFilterFromQuery(url.Values{
		"trace": {"abc"}, "name": {"fsync"}, "op": {"admit"},
		"min": {"2ms"}, "limit": {"7"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := obs.SpanFilter{TraceID: "abc", Name: "fsync", Op: "admit", MinDuration: 2 * time.Millisecond, Limit: 7}
	if f != want {
		t.Fatalf("parsed %+v, want %+v", f, want)
	}
	for _, bad := range []url.Values{
		{"min": {"nope"}},
		{"min": {"-1s"}},
		{"limit": {"x"}},
		{"limit": {"-3"}},
		{"limit": {"5abc"}},
	} {
		if _, err := SpanFilterFromQuery(bad); err == nil {
			t.Fatalf("query %v accepted", bad)
		}
	}
}

// TestDecodeError: envelope bodies decode structurally; garbage bodies
// degrade to the trimmed text.
func TestDecodeError(t *testing.T) {
	e := DecodeError(503, []byte(`{"code":"shard_down","error":"shard b down","requestId":"r1"}`))
	if e.Status != 503 || e.Envelope.Code != CodeShardDown || e.Envelope.RequestID != "r1" {
		t.Fatalf("envelope decode: %+v", e)
	}
	if !strings.Contains(e.Error(), "shard_down") {
		t.Fatalf("Error() lacks the code: %s", e.Error())
	}
	e = DecodeError(502, []byte("  bad gateway\n"))
	if e.Envelope.Message != "bad gateway" || e.Envelope.Code != "" {
		t.Fatalf("plain-text fallback: %+v", e)
	}
}

// TestDigestBytes pins the fingerprint function against a fixed vector.
func TestDigestBytes(t *testing.T) {
	got := DigestBytes([]byte("vmalloc"))
	if len(got) != 64 {
		t.Fatalf("digest %q is not hex SHA-256", got)
	}
	if got != DigestBytes([]byte("vmalloc")) {
		t.Fatal("digest is not deterministic")
	}
	if got == DigestBytes([]byte("vmalloc2")) {
		t.Fatal("digest ignores input")
	}
}
