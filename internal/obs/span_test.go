package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestSpanStoreRingAndFilter(t *testing.T) {
	s := NewSpanStore(4)
	for i := 1; i <= 6; i++ {
		s.Record(Span{TraceID: "t1", Name: SpanScan, VM: i, Duration: time.Duration(i) * time.Millisecond})
	}
	// Oldest-first, the two oldest evicted.
	all := s.Select(0, nil)
	if len(all) != 4 || all[0].VM != 3 || all[3].VM != 6 {
		t.Fatalf("ring contents %+v", all)
	}
	for i, sp := range all {
		if sp.Seq != int64(i+3) || sp.Start.IsZero() {
			t.Fatalf("span %d stamped %+v", i, sp)
		}
	}
	// MinDuration and Limit compose: newest matches win.
	got := s.Select(2, SpanFilter{MinDuration: 4 * time.Millisecond}.Match)
	if len(got) != 2 || got[0].VM != 5 || got[1].VM != 6 {
		t.Fatalf("filtered %+v", got)
	}
	if got := s.Select(0, SpanFilter{TraceID: "other"}.Match); len(got) != 0 {
		t.Fatalf("trace filter leaked %+v", got)
	}
	if got := s.Select(0, SpanFilter{Name: SpanCommit}.Match); len(got) != 0 {
		t.Fatalf("name filter leaked %+v", got)
	}
}

func TestSpanStoreNilSafe(t *testing.T) {
	var s *SpanStore
	s.Record(Span{Name: SpanScan})
	if s.Select(0, nil) != nil {
		t.Fatal("nil store not inert")
	}
	var r *FlightRecorder
	r.Record(Decision{Op: OpAdmit})
	if r.Select(0, nil) != nil {
		t.Fatal("nil recorder not inert")
	}
	var buf bytes.Buffer
	WriteSpanMetrics(&buf, s, "vmalloc_trace")
	if buf.Len() != 0 {
		t.Fatalf("nil store wrote metrics: %s", buf.String())
	}
}

func TestSpanStoreDumpAndMetrics(t *testing.T) {
	s := NewSpanStore(8)
	s.Record(Span{TraceID: "t", SpanID: "a", Name: SpanCommit, VM: 9, Duration: time.Millisecond})
	s.Record(Span{TraceID: "t", SpanID: "b", Name: SpanSync, Duration: 2 * time.Millisecond})

	var logBuf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&logBuf, nil))
	if n := Dump(log, "span", s.Select(1, nil)); n != 1 {
		t.Fatalf("dump wrote %d spans, want 1 (newest)", n)
	}
	if out := logBuf.String(); !strings.Contains(out, `\"name\":\"fsync\"`) {
		t.Fatalf("dump output %q", out)
	}

	var buf bytes.Buffer
	WriteSpanMetrics(&buf, s, "vmalloc_trace")
	out := buf.String()
	for _, want := range []string{
		"vmalloc_trace_spans_total 2",
		"vmalloc_trace_spans_buffered 2",
		"vmalloc_trace_span_capacity 8",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}
