package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"math"
	mrand "math/rand/v2"
)

// TraceParentHeader is the W3C Trace Context header carrying the trace id
// and the caller's span id across process boundaries (vmload → vmgate →
// vmserve). Header names are canonicalised by net/http, so the lowercase
// spelling here works for both reading and writing.
const TraceParentHeader = "traceparent"

// TraceContext is the propagated slice of a distributed trace: the trace
// id shared by every span in the request, and the span id of the caller
// that spans recorded downstream use as their Parent.
type TraceContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the context carries both ids.
func (tc TraceContext) Valid() bool { return tc.TraceID != "" && tc.SpanID != "" }

// Header renders the context as a version-00 traceparent value with the
// sampled flag set (everything this process records is kept).
func (tc TraceContext) Header() string {
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-01"
}

// NewTraceID mints a 32-hex-digit random trace id.
func NewTraceID() string { return randHex(16) }

// NewSpanID mints a 16-hex-digit random span id, never all zero. A span
// id only tells the spans of one trace apart and the admit pipeline mints
// ≈4 per VM before it replies, so it is drawn from math/rand/v2 and
// rendered on the stack; trace and request ids, one per request and the
// keys logs and processes are joined on, keep crypto/rand.
func NewSpanID() string {
	v := 1 + mrand.Uint64N(math.MaxUint64)
	var b [16]byte
	for i := range b {
		b[i] = "0123456789abcdef"[v>>60]
		v <<= 4
	}
	return string(b[:])
}

// NewTraceContext mints a fresh root context: a new trace with a new root
// span id.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
}

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic("obs: crypto/rand failed: " + err.Error())
	}
	return hex.EncodeToString(b)
}

// ParseTraceParent validates an incoming traceparent value per the W3C
// Trace Context spec and returns the embedded trace id and parent span id.
// Malformed values — wrong field widths, uppercase or non-hex digits,
// all-zero ids, the forbidden version ff — return ok=false so the edge
// mints a fresh context instead of propagating garbage.
func ParseTraceParent(h string) (TraceContext, bool) {
	// version "-" trace-id(32) "-" parent-id(16) "-" flags(2), all lower
	// hex. Version 00 is exactly 55 bytes; future versions may append
	// "-extra" fields, which we accept but ignore.
	if len(h) < 55 {
		return TraceContext{}, false
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceContext{}, false
	}
	version, traceID, spanID, flags := h[0:2], h[3:35], h[36:52], h[53:55]
	switch {
	case !isLowerHex(version) || version == "ff",
		version == "00" && len(h) != 55,
		len(h) > 55 && h[55] != '-',
		!isLowerHex(traceID) || isZeroHex(traceID),
		!isLowerHex(spanID) || isZeroHex(spanID),
		!isLowerHex(flags):
		return TraceContext{}, false
	}
	return TraceContext{TraceID: traceID, SpanID: spanID}, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func isZeroHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// WithTraceContext returns a context carrying tc.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceKey, tc)
}

// TraceContextFrom returns the trace context stored by WithTraceContext,
// or the zero value when the request was not traced.
func TraceContextFrom(ctx context.Context) TraceContext {
	tc, _ := ctx.Value(traceKey).(TraceContext)
	return tc
}
