package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if got := RequestID(ctx); got != "" {
		t.Errorf("RequestID of empty context = %q", got)
	}
	ctx = WithRequestID(ctx, "abc123")
	if got := RequestID(ctx); got != "abc123" {
		t.Errorf("RequestID = %q, want abc123", got)
	}
	ctx = WithDecodeSpan(ctx, 5*time.Millisecond)
	if got := DecodeSpan(ctx); got != 5*time.Millisecond {
		t.Errorf("DecodeSpan = %v", got)
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Errorf("NewRequestID gave %q then %q", a, b)
	}
	if !ValidRequestID(a) {
		t.Errorf("generated id %q is not valid", a)
	}
}

func TestValidRequestID(t *testing.T) {
	for id, want := range map[string]bool{
		"":                                       false,
		"ok-id_7":                                true,
		"has space":                              false,
		"ctrl\x01char":                           false,
		"unicode-é":                              false,
		strings.Repeat("x", MaxRequestIDLen):     true,
		strings.Repeat("x", MaxRequestIDLen+1):   false,
		"X-Request-Id: injected\r\nEvil: header": false,
	} {
		if got := ValidRequestID(id); got != want {
			t.Errorf("ValidRequestID(%q) = %v, want %v", id, got, want)
		}
	}
}

func TestFlightRecorderRing(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 1; i <= 10; i++ {
		r.Record(Decision{Op: OpAdmit, VM: i})
	}
	ds := r.Select(0, nil)
	if len(ds) != 4 {
		t.Fatalf("got %d decisions, want 4", len(ds))
	}
	// Oldest first, and only the newest 4 survived.
	for i, d := range ds {
		wantVM := 7 + i
		if d.VM != wantVM || d.Seq != int64(wantVM) {
			t.Errorf("decision %d = vm %d seq %d, want vm/seq %d", i, d.VM, d.Seq, wantVM)
		}
		if d.Wall.IsZero() {
			t.Errorf("decision %d has no wall time", i)
		}
	}
}

func TestFlightRecorderFilter(t *testing.T) {
	r := NewFlightRecorder(64)
	r.Record(Decision{Op: OpAdmit, VM: 1, Server: 3})
	r.Record(Decision{Op: OpReject, VM: 2, Reason: "no capacity"})
	r.Record(Decision{Op: OpAdmit, VM: 3, Server: 5})
	r.Record(Decision{Op: OpRelease, VM: 1, Server: 3})

	if got := r.Select(0, Filter{VM: 1}.Match); len(got) != 2 {
		t.Errorf("VM filter got %d, want 2", len(got))
	}
	if got := r.Select(0, Filter{Server: 3}.Match); len(got) != 2 {
		t.Errorf("server filter got %d, want 2", len(got))
	}
	if got := r.Select(0, Filter{Op: OpReject}.Match); len(got) != 1 || got[0].VM != 2 {
		t.Errorf("op filter got %+v", got)
	}
	if got := r.Select(2, nil); len(got) != 2 || got[1].Op != OpRelease {
		t.Errorf("limit filter got %+v, want newest two", got)
	}
	if got := r.Select(0, Filter{VM: 1, Op: OpAdmit}.Match); len(got) != 1 {
		t.Errorf("combined filter got %d, want 1", len(got))
	}
}

func TestFlightRecorderDump(t *testing.T) {
	r := NewFlightRecorder(8)
	r.Record(Decision{Op: OpAdmit, VM: 1, Server: 2, RequestID: "req-1"})
	r.Record(Decision{Op: OpReject, VM: 2, Reason: "no capacity"})
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	if n := Dump(log, "decision", r.Select(0, nil)); n != 2 {
		t.Fatalf("Dump wrote %d decisions, want 2", n)
	}
	out := buf.String()
	for _, want := range []string{`\"op\":\"admit\"`, `\"op\":\"reject\"`, `\"requestId\":\"req-1\"`, `\"reason\":\"no capacity\"`} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewFlightRecorder(32)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			r.Record(Decision{Op: OpAdmit, VM: i})
		}
	}()
	for i := 0; i < 100; i++ {
		r.Select(0, nil)
	}
	<-done
	if ds := r.Select(0, nil); ds[len(ds)-1].Seq != 500 {
		t.Fatalf("newest Seq = %d, want 500", ds[len(ds)-1].Seq)
	}
}

func TestHistogramWrite(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []float64{0.5, 5, 50, 500, 5, 1} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	h.Write(&buf, "x_seconds", "help text")
	want := `# HELP x_seconds help text
# TYPE x_seconds histogram
x_seconds_bucket{le="1"} 2
x_seconds_bucket{le="10"} 4
x_seconds_bucket{le="100"} 5
x_seconds_bucket{le="+Inf"} 6
x_seconds_sum 561.5
x_seconds_count 6
`
	if buf.String() != want {
		t.Errorf("Write:\n%s\nwant:\n%s", buf.String(), want)
	}

	buf.Reset()
	h.WriteSeries(&buf, "x_seconds", "route", "GET /v1/state")
	for _, line := range []string{
		`x_seconds_bucket{route="GET /v1/state",le="1"} 2`,
		`x_seconds_bucket{route="GET /v1/state",le="+Inf"} 6`,
		`x_seconds_sum{route="GET /v1/state"} 561.5`,
		`x_seconds_count{route="GET /v1/state"} 6`,
	} {
		if !strings.Contains(buf.String(), line) {
			t.Errorf("labelled series missing %q:\n%s", line, buf.String())
		}
	}
}

func TestHTTPMetricsWrite(t *testing.T) {
	m := NewHTTPMetrics()
	m.Observe("POST /v1/vms", 200, 2*time.Millisecond)
	m.Observe("POST /v1/vms", 200, 3*time.Millisecond)
	m.Observe("POST /v1/vms", 400, time.Millisecond)
	m.Observe("GET /v1/state", 200, time.Millisecond)
	var buf bytes.Buffer
	m.Write(&buf, "vmalloc_http")
	out := buf.String()
	for _, want := range []string{
		`vmalloc_http_requests_total{route="GET /v1/state",status="200"} 1`,
		`vmalloc_http_requests_total{route="POST /v1/vms",status="200"} 2`,
		`vmalloc_http_requests_total{route="POST /v1/vms",status="400"} 1`,
		`vmalloc_http_request_seconds_bucket{route="POST /v1/vms",le="+Inf"} 3`,
		`vmalloc_http_request_seconds_count{route="GET /v1/state"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	m.Write(&buf2, "vmalloc_http")
	if buf.String() != buf2.String() {
		t.Error("two writes of the same metrics differ")
	}
}

func TestMiddleware(t *testing.T) {
	met := NewHTTPMetrics()
	var logBuf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))

	var seenID string
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ping/{x}", func(w http.ResponseWriter, r *http.Request) {
		seenID = RequestID(r.Context())
		w.WriteHeader(http.StatusTeapot)
	})
	srv := httptest.NewServer(Middleware(mux, log, met, nil))
	defer srv.Close()

	// Client-supplied valid id is propagated and echoed.
	req, _ := http.NewRequest("GET", srv.URL+"/ping/1", nil)
	req.Header.Set(RequestIDHeader, "client-id-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if seenID != "client-id-1" {
		t.Errorf("handler saw request id %q, want client-id-1", seenID)
	}
	if got := resp.Header.Get(RequestIDHeader); got != "client-id-1" {
		t.Errorf("response header id %q", got)
	}
	if resp.StatusCode != http.StatusTeapot {
		t.Errorf("status %d", resp.StatusCode)
	}

	// A hostile id is replaced with a fresh one.
	req, _ = http.NewRequest("GET", srv.URL+"/ping/2", nil)
	req.Header.Set(RequestIDHeader, strings.Repeat("z", 200))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); !ValidRequestID(got) || got == strings.Repeat("z", 200) {
		t.Errorf("hostile id echoed back as %q", got)
	}
	if seenID == "" || seenID == strings.Repeat("z", 200) {
		t.Errorf("handler saw %q", seenID)
	}

	// No id at all: one is minted.
	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); !ValidRequestID(got) {
		t.Errorf("minted id %q invalid", got)
	}

	// Metrics: the matched route is labelled by its pattern, the missing
	// one as unmatched.
	var exp bytes.Buffer
	met.Write(&exp, "x")
	for _, want := range []string{`x_requests_total{route="GET /ping/{x}",status="418"} 2`, `x_requests_total{route="unmatched",status="404"} 1`} {
		if !strings.Contains(exp.String(), want) {
			t.Errorf("route counts lack %s:\n%s", want, exp.String())
		}
	}

	// Access log lines carry the id and the route.
	out := logBuf.String()
	for _, want := range []string{"requestId=client-id-1", `route="GET /ping/{x}"`, "status=418", "msg=http"} {
		if !strings.Contains(out, want) {
			t.Errorf("access log missing %q:\n%s", want, out)
		}
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	log.Debug("hidden")
	log.Info("shown", "k", "v")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not one JSON line: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "shown" || rec["k"] != "v" {
		t.Errorf("record %v", rec)
	}

	buf.Reset()
	log, err = NewLogger(&buf, "text", "debug")
	if err != nil {
		t.Fatal(err)
	}
	log.Debug("fine")
	if !strings.Contains(buf.String(), "msg=fine") {
		t.Errorf("text output %q", buf.String())
	}

	if _, err := NewLogger(&buf, "xml", "info"); err == nil {
		t.Error("xml format accepted")
	}
	if _, err := NewLogger(&buf, "text", "loud"); err == nil {
		t.Error("bad level accepted")
	}
}

func TestNopLogger(t *testing.T) {
	// Must not panic and must not write anywhere.
	NopLogger().Error("dropped", "k", 1)
}

func TestWriteRuntimeAndBuildInfo(t *testing.T) {
	var buf bytes.Buffer
	WriteRuntimeMetrics(&buf)
	WriteBuildInfo(&buf, "vmalloc_build_info", "Build identity of the running binary (constant 1).")
	out := buf.String()
	for _, want := range []string{
		"vmalloc_go_goroutines ",
		"vmalloc_go_heap_alloc_bytes ",
		"vmalloc_go_gc_pause_seconds_total ",
		"vmalloc_build_info{version=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

// TestExpositionWriter pins the one text-exposition grammar: integers
// print in full (a %g float would turn 1234567 into 1.234567e+06), floats
// in shortest form, label values quoted and escaped, labels in call order.
func TestExpositionWriter(t *testing.T) {
	var buf bytes.Buffer
	Counter(&buf, "x_total", "Things.", uint64(1234567))
	Gauge(&buf, "x_ratio", "A ratio.", 0.25)
	Declare(&buf, "x_state", "Per-server state.", "gauge")
	Sample(&buf, "x_state", 3, "server", "7", "note", `a "b"\c`)
	Sample(&buf, "x_state", int64(-1))
	want := `# HELP x_total Things.
# TYPE x_total counter
x_total 1234567
# HELP x_ratio A ratio.
# TYPE x_ratio gauge
x_ratio 0.25
# HELP x_state Per-server state.
# TYPE x_state gauge
x_state{server="7",note="a \"b\"\\c"} 3
x_state -1
`
	if buf.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
}
