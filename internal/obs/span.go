package obs

import (
	"io"
	"time"
)

// Span names. Shard-side spans mirror the stage timings the flight
// recorder already keeps per decision; gate-side spans cover the
// scatter-gather itself.
const (
	// SpanRoute is the HTTP edge span recorded by the middleware on both
	// the gate and the shards (one per traced request per process).
	SpanRoute = "route"
	// SpanFanout is one gate→shard downstream call.
	SpanFanout = "fanout"
	// SpanMerge is the gate's reassembly of shard responses.
	SpanMerge = "merge"

	SpanDecode  = "decode"
	SpanQueue   = "queue"
	SpanScan    = "scan"
	SpanCommit  = "commit"
	SpanJournal = "journal"
	SpanSync    = "fsync"

	// SpanMigrate is the umbrella over one migration's commit/journal/
	// fsync stages; SpanConsolidate covers a whole consolidation pass.
	SpanMigrate     = "migrate"
	SpanConsolidate = "consolidate"

	// SpanAdopt is the umbrella over one adoption's commit/journal/fsync
	// stages on the receiving shard. SpanRebalance covers a whole
	// gate-driven topology drain; SpanRebalanceMove is one VM's
	// adopt-then-release pair within it (Detail carries "from→to").
	SpanAdopt         = "adopt"
	SpanRebalance     = "rebalance"
	SpanRebalanceMove = "rebalance.move"
)

// Span is one timed stage of one traced request. Spans form a tree via
// Parent (a span id within the same trace); the gate's /v1/debug/traces
// stitches gate- and shard-recorded spans into one tree because the gate
// propagates its fan-out span id as the shard edge's parent.
type Span struct {
	// Seq orders spans recorded by one store (monotone, starts at 1).
	Seq     int64  `json:"seq"`
	TraceID string `json:"traceId"`
	SpanID  string `json:"spanId"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	// Op is the decision op (admit/reject/release/migrate/adopt) for
	// stage spans, empty for edge/transport spans.
	Op string `json:"op,omitempty"`
	// VM and Batch link stage spans back to flight-recorder decisions.
	VM    int    `json:"vm,omitempty"`
	Batch uint64 `json:"batch,omitempty"`
	// Detail carries span-specific context: the route pattern for edge
	// spans, the shard name for fan-out spans, the policy for
	// consolidate spans.
	Detail string    `json:"detail,omitempty"`
	Err    string    `json:"err,omitempty"`
	Start  time.Time `json:"start"`
	// Duration is the span's wall time.
	Duration time.Duration `json:"durationNanos"`
}

// DefaultSpanStoreSize is the span-ring capacity unless -trace-spans
// overrides it. Spans are ~10× more numerous than decisions (several
// stages per op), so the default is correspondingly larger than the
// flight recorder's.
const DefaultSpanStoreSize = 4096

// SpanStore is the bounded store of recorded spans, newest-wins. A nil
// *SpanStore is valid and records nothing.
type SpanStore = Store[Span, *Span]

// NewSpanStore returns a store keeping the newest n spans (n<=0 uses
// DefaultSpanStoreSize).
func NewSpanStore(n int) *SpanStore {
	return newStore[Span](n, DefaultSpanStoreSize)
}

// stamp gives sp its sequence number and, unless the caller set one, the
// current time as its start.
func (sp *Span) stamp(seq int64) {
	sp.Seq = seq
	if sp.Start.IsZero() {
		sp.Start = time.Now()
	}
}

// SpanFilter selects spans; zero-valued fields match everything.
type SpanFilter struct {
	TraceID string
	Name    string
	Op      string
	// MinDuration drops spans shorter than this.
	MinDuration time.Duration
	// Limit keeps only the newest Limit matches (0 = all).
	Limit int
}

// Match reports whether sp passes every set field of f but Limit, which
// is Select's.
func (f SpanFilter) Match(sp *Span) bool {
	if f.TraceID != "" && sp.TraceID != f.TraceID {
		return false
	}
	if f.Name != "" && sp.Name != f.Name {
		return false
	}
	if f.Op != "" && sp.Op != f.Op {
		return false
	}
	if sp.Duration < f.MinDuration {
		return false
	}
	return true
}

// WriteSpanMetrics writes s's counters in Prometheus text format under
// the given family prefix (e.g. "vmalloc_trace" on shards,
// "vmalloc_gate_trace" on the gate so merged shard families keep their
// own name). A nil store writes nothing.
func WriteSpanMetrics(w io.Writer, s *SpanStore, prefix string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	seq, buffered, capacity := s.seq, s.buf.len(), cap(s.buf.buf)
	s.mu.Unlock()
	Counter(w, prefix+"_spans_total", "Trace spans recorded over the process lifetime.", seq)
	Gauge(w, prefix+"_spans_buffered", "Trace spans currently buffered for /v1/debug/traces.", buffered)
	Gauge(w, prefix+"_span_capacity", "Span-store ring capacity (-trace-spans).", capacity)
}
