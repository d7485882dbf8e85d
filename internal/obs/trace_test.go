package obs

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestParseTraceParent pins the edge's traceparent validation: anything
// malformed is rejected so the middleware mints a fresh context instead
// of propagating garbage downstream.
func TestParseTraceParent(t *testing.T) {
	const (
		goodTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
		goodSpan  = "00f067aa0ba902b7"
	)
	good := "00-" + goodTrace + "-" + goodSpan + "-01"
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"valid version 00", good, true},
		{"valid flags 00", "00-" + goodTrace + "-" + goodSpan + "-00", true},
		{"future version with extension", "cc-" + goodTrace + "-" + goodSpan + "-01-extra", true},
		{"empty", "", false},
		{"too short", good[:54], false},
		{"version 00 with trailing bytes", good + "x", false},
		{"future version junk after flags", "cc-" + goodTrace + "-" + goodSpan + "-01x", false},
		{"misplaced dashes", strings.ReplaceAll(good, "-", "_"), false},
		{"uppercase trace id", "00-" + strings.ToUpper(goodTrace) + "-" + goodSpan + "-01", false},
		{"non-hex trace id", "00-" + strings.Repeat("g", 32) + "-" + goodSpan + "-01", false},
		{"all-zero trace id", "00-" + strings.Repeat("0", 32) + "-" + goodSpan + "-01", false},
		{"all-zero span id", "00-" + goodTrace + "-" + strings.Repeat("0", 16) + "-01", false},
		{"forbidden version ff", "ff-" + goodTrace + "-" + goodSpan + "-01", false},
		{"non-hex version", "zz-" + goodTrace + "-" + goodSpan + "-01", false},
		{"non-hex flags", "00-" + goodTrace + "-" + goodSpan + "-zz", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := ParseTraceParent(tc.in)
			if ok != tc.ok {
				t.Fatalf("ParseTraceParent(%q) ok = %v, want %v", tc.in, ok, tc.ok)
			}
			if ok && (got.TraceID != goodTrace || got.SpanID != goodSpan) {
				t.Fatalf("parsed %+v", got)
			}
			if !ok && got.Valid() {
				t.Fatalf("rejected input returned non-zero context %+v", got)
			}
		})
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() {
		t.Fatalf("minted context invalid: %+v", tc)
	}
	if len(tc.TraceID) != 32 || len(tc.SpanID) != 16 {
		t.Fatalf("id widths: trace %d span %d", len(tc.TraceID), len(tc.SpanID))
	}
	got, ok := ParseTraceParent(tc.Header())
	if !ok || got != tc {
		t.Fatalf("Header round trip: %q -> %+v ok=%v", tc.Header(), got, ok)
	}
}

// TestNewSpanID: a span id is 16 lower-hex digits, not all zero (the
// traceparent grammar), and two in a row differ.
func TestNewSpanID(t *testing.T) {
	prev := ""
	for i := 0; i < 1000; i++ {
		id := NewSpanID()
		tc, ok := ParseTraceParent(TraceContext{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: id}.Header())
		if !ok || tc.SpanID != id || id == prev {
			t.Fatalf("span id %q after %q: parsed %v as %q", id, prev, ok, tc.SpanID)
		}
		prev = id
	}
}

// BenchmarkNewSpanID: the admit pipeline mints ≈4 per VM before it
// replies (cluster.emitStageSpans).
func BenchmarkNewSpanID(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if NewSpanID() == "" {
			b.Fatal("empty span id")
		}
	}
}

// TestMiddlewareTraceHeaders pins the edge contract for both identity
// headers at once: a malformed traceparent or X-Request-Id is never
// echoed or propagated — the middleware mints a fresh value — while
// valid ones flow through (the traceparent keeping its trace id but
// getting this hop's span id).
func TestMiddlewareTraceHeaders(t *testing.T) {
	const inTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	valid := "00-" + inTrace + "-00f067aa0ba902b7-01"
	cases := []struct {
		name          string
		traceparent   string
		requestID     string
		wantTraceID   string // "" = freshly minted
		wantRequestID string // "" = freshly minted
	}{
		{"both valid", valid, "req-1", inTrace, "req-1"},
		{"both absent", "", "", "", ""},
		{"malformed traceparent", "00-zzz-abc-01", "req-2", "", "req-2"},
		{"uppercase traceparent", strings.ToUpper(valid), "req-3", "", "req-3"},
		{"oversized request id", valid, strings.Repeat("z", 200), inTrace, ""},
		{"request id with spaces", valid, "a b c", inTrace, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spans := NewSpanStore(16)
			var seen TraceContext
			mux := http.NewServeMux()
			mux.HandleFunc("GET /ping", func(w http.ResponseWriter, r *http.Request) {
				seen = TraceContextFrom(r.Context())
			})
			log := slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))
			srv := httptest.NewServer(Middleware(mux, log, NewHTTPMetrics(), spans))
			defer srv.Close()

			req, _ := http.NewRequest("GET", srv.URL+"/ping", nil)
			if tc.traceparent != "" {
				req.Header.Set(TraceParentHeader, tc.traceparent)
			}
			if tc.requestID != "" {
				req.Header.Set(RequestIDHeader, tc.requestID)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()

			echo, ok := ParseTraceParent(resp.Header.Get(TraceParentHeader))
			if !ok {
				t.Fatalf("response traceparent %q unparsable", resp.Header.Get(TraceParentHeader))
			}
			if !seen.Valid() || seen != echo {
				t.Fatalf("handler saw %+v, response echoed %+v", seen, echo)
			}
			if tc.wantTraceID != "" && echo.TraceID != tc.wantTraceID {
				t.Fatalf("trace id %q, want propagated %q", echo.TraceID, tc.wantTraceID)
			}
			if tc.wantTraceID == "" && echo.TraceID == inTrace {
				t.Fatal("malformed traceparent's trace id was propagated")
			}

			gotID := resp.Header.Get(RequestIDHeader)
			if !ValidRequestID(gotID) {
				t.Fatalf("response request id %q invalid", gotID)
			}
			if tc.wantRequestID != "" && gotID != tc.wantRequestID {
				t.Fatalf("request id %q, want propagated %q", gotID, tc.wantRequestID)
			}
			if tc.wantRequestID == "" && tc.requestID != "" && gotID == tc.requestID {
				t.Fatalf("hostile request id %q echoed back", tc.requestID)
			}

			// The middleware recorded exactly one route span under the
			// effective trace id, parented on the inbound span when valid.
			routes := spans.Select(0, SpanFilter{Name: SpanRoute}.Match)
			if len(routes) != 1 {
				t.Fatalf("got %d route spans, want 1", len(routes))
			}
			sp := routes[0]
			if sp.TraceID != echo.TraceID || sp.SpanID != echo.SpanID {
				t.Fatalf("route span %+v does not match echoed context %+v", sp, echo)
			}
			if in, ok := ParseTraceParent(tc.traceparent); ok && sp.Parent != in.SpanID {
				t.Fatalf("route span parent %q, want inbound span %q", sp.Parent, in.SpanID)
			}
			if sp.Detail != "GET /ping" {
				t.Fatalf("route span detail %q", sp.Detail)
			}
		})
	}
}
