package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"reflect"
	"strings"
	"testing"
	"time"
)

// BenchmarkRecord times one Record into a full store of each kind, the
// call every admission, release and stage span makes; it must not
// allocate.
func BenchmarkRecord(b *testing.B) {
	b.Run("decision", func(b *testing.B) {
		rec := NewFlightRecorder(0)
		d := Decision{Op: OpAdmit, VM: 1, Server: 1, RequestID: "bench", Wall: time.Now(),
			Stages: StageTimings{Scan: time.Microsecond, Commit: time.Microsecond}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.Record(d)
		}
	})
	b.Run("span", func(b *testing.B) {
		spans := NewSpanStore(0)
		sp := Span{TraceID: NewTraceID(), SpanID: NewSpanID(), Name: SpanScan, Op: OpAdmit,
			VM: 1, Start: time.Now(), Duration: time.Microsecond}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spans.Record(sp)
		}
	})
}

// TestRecordAllocFree: Record copies its argument into the ring's slot
// and stamps it there; neither store allocates once full.
func TestRecordAllocFree(t *testing.T) {
	rec, spans := NewFlightRecorder(4), NewSpanStore(4)
	d := Decision{Op: OpAdmit, VM: 1, RequestID: "req"}
	sp := Span{TraceID: "t", Name: SpanScan}
	if n := testing.AllocsPerRun(100, func() { rec.Record(d) }); n != 0 {
		t.Errorf("FlightRecorder.Record: %g allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { spans.Record(sp) }); n != 0 {
		t.Errorf("SpanStore.Record: %g allocs/op, want 0", n)
	}
}

// dumped dumps entries through slog's JSON handler and decodes the entry
// of each line it wrote.
func dumped[T any](t *testing.T, msg string, entries []T) []T {
	t.Helper()
	var buf bytes.Buffer
	if n := Dump(slog.New(slog.NewJSONHandler(&buf, nil)), msg, entries); n != len(entries) {
		t.Fatalf("%s: Dump wrote %d, want %d", msg, n, len(entries))
	}
	var out []T
	for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var line struct {
			Msg   string `json:"msg"`
			Entry T      `json:"entry"`
		}
		if err := json.Unmarshal([]byte(l), &line); err != nil || line.Msg != msg {
			t.Fatalf("%s: line %q: msg %q, err %v", msg, l, line.Msg, err)
		}
		out = append(out, line.Entry)
	}
	return out
}

// TestDumpIsTheJSONForm: each dumped line, through slog's JSON handler,
// carries the entry as json.Marshal writes it — the object the debug
// routes serve — with every field, for all three kinds of entry.
func TestDumpIsTheJSONForm(t *testing.T) {
	wall := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	ds := []Decision{
		{Seq: 1, Wall: wall, Op: OpMigrate, VM: 3, Server: 2, From: 1, SavedWattMinutes: 1.5, Start: 4, End: 9,
			Stages: StageTimings{Decode: 1, Commit: 2, Sync: 3}},
		{Seq: 2, Wall: wall, Op: OpReject, VM: 4, Reason: "no capacity"},
	}
	if got := dumped(t, "decision", ds); !reflect.DeepEqual(got, ds) {
		t.Errorf("decisions dumped as %+v, want %+v", got, ds)
	}
	sps := []Span{{Seq: 7, TraceID: "t", SpanID: "s", Name: SpanCommit, VM: 3, Start: wall, Duration: time.Millisecond}}
	if got := dumped(t, "span", sps); !reflect.DeepEqual(got, sps) {
		t.Errorf("spans dumped as %+v, want %+v", got, sps)
	}
	ss := []EnergySample{{Seq: 3, Wall: wall, Clock: 60, RunWattMinutes: 10, IdleWattMinutes: 2, TransitionWattMinutes: 1,
		TotalWattMinutes: 13, RateWatts: 13, Active: 1, Sleeping: 3, Residents: 2,
		Classes: map[string]ClassUsage{"default": {Servers: 4, Active: 1, CPUCapacity: 10, CPUUsed: 5, Utilization: 0.5}}}}
	if got := dumped(t, "energy sample", ss); !reflect.DeepEqual(got, ss) {
		t.Errorf("energy samples dumped as %+v, want %+v", got, ss)
	}
}
