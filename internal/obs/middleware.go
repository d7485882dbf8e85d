package obs

import (
	"log/slog"
	"net/http"
	"time"
)

// statusWriter captures the response status and size for the access log
// and the per-route metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Middleware wraps next with the service's request instrumentation:
//
//   - every request gets a request id — the client's X-Request-Id when
//     valid, a fresh one otherwise — carried via the context through the
//     whole admission pipeline and echoed on the response;
//   - met gains a per-route/status count and a per-route
//     latency observation, labelled with the ServeMux pattern that
//     served the request ("unmatched" when none did);
//   - log (when non-nil) gets one structured access-log line per
//     request at DEBUG, and at WARN for 5xx responses, carrying the
//     trace id as an exemplar;
//   - every request joins a distributed trace: a valid incoming
//     traceparent is adopted (its span id becomes the parent of the span
//     this edge records), a malformed or absent one is replaced by a
//     fresh root context — garbage is never propagated. The handler's
//     own span id is minted here, carried via the context so downstream
//     stages parent onto it, echoed as the response traceparent, and —
//     when spans is non-nil — recorded as a SpanRoute span.
func Middleware(next http.Handler, log *slog.Logger, met *HTTPMetrics, spans *SpanStore) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if !ValidRequestID(id) {
			id = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)

		parent, ok := ParseTraceParent(r.Header.Get(TraceParentHeader))
		if !ok {
			parent = TraceContext{TraceID: NewTraceID()}
		}
		self := TraceContext{TraceID: parent.TraceID, SpanID: NewSpanID()}
		w.Header().Set(TraceParentHeader, self.Header())

		ctx := WithRequestID(r.Context(), id)
		ctx = WithTraceContext(ctx, self)
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		// ServeMux sets r.Pattern on this same request value, so the
		// route label is readable here once next returns.
		next.ServeHTTP(sw, r)
		d := time.Since(t0)

		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		met.Observe(route, status, d)
		spans.Record(Span{
			TraceID:  self.TraceID,
			SpanID:   self.SpanID,
			Parent:   parent.SpanID,
			Name:     SpanRoute,
			Detail:   route,
			Start:    t0,
			Duration: d,
		})
		if log != nil {
			lvl := slog.LevelDebug
			if status >= 500 {
				lvl = slog.LevelWarn
			}
			log.Log(r.Context(), lvl, "http",
				"requestId", id,
				"traceId", self.TraceID,
				"op", r.Method+" "+r.URL.Path,
				"route", route,
				"status", status,
				"bytes", sw.bytes,
				"duration", d,
			)
		}
	})
}
