package cluster

import (
	"context"
	"math"
	"testing"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
)

// TestStageSpanEmission: with a span store configured, every traced
// admission leaves its stage timings as spans under the caller's trace
// id, linked to the flight-recorder decision via the same trace id —
// and an untraced call records nothing.
func TestStageSpanEmission(t *testing.T) {
	rec := obs.NewFlightRecorder(64)
	spans := obs.NewSpanStore(256)
	c := mustOpen(t, Config{Servers: testServers(2), IdleTimeout: 2, Recorder: rec, Spans: spans})
	defer c.Close()

	tc := obs.NewTraceContext()
	ctx := obs.WithTraceContext(context.Background(), tc)
	ctx = obs.WithRequestID(ctx, "trace-test-id")
	ctx = obs.WithDecodeSpan(ctx, 3*time.Millisecond)
	adms, err := c.Admit(ctx, []api.AdmitRequest{
		{ID: 1, Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 30},
		{ID: 2, Demand: model.Resources{CPU: 999, Mem: 999}, DurationMinutes: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !adms[0].Accepted || adms[1].Accepted {
		t.Fatalf("admissions %+v", adms)
	}

	all := spans.Spans(obs.SpanFilter{TraceID: tc.TraceID})
	if len(all) == 0 {
		t.Fatal("no spans recorded for the trace")
	}
	byName := map[string][]obs.Span{}
	for _, sp := range all {
		if sp.Parent != tc.SpanID {
			t.Errorf("span %s parent %q, want caller span %q", sp.Name, sp.Parent, tc.SpanID)
		}
		if sp.Duration <= 0 || sp.SpanID == "" {
			t.Errorf("malformed span %+v", sp)
		}
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	// Both VMs went through decode and the scan; only the accepted one
	// committed.
	if got := len(byName[obs.SpanDecode]); got != 2 {
		t.Errorf("%d decode spans, want 2", got)
	}
	if got := len(byName[obs.SpanScan]); got != 2 {
		t.Errorf("%d scan spans, want 2", got)
	}
	if got := len(byName[obs.SpanCommit]); got != 1 {
		t.Errorf("%d commit spans, want 1", got)
	}
	commit := byName[obs.SpanCommit][0]
	if commit.VM != 1 || commit.Op != obs.OpAdmit || commit.Batch == 0 {
		t.Errorf("commit span %+v", commit)
	}

	// The flight-recorder decisions carry the same trace id, linking
	// /v1/debug/decisions to /v1/debug/traces.
	for _, d := range rec.Decisions(obs.Filter{}) {
		if d.TraceID != tc.TraceID {
			t.Errorf("decision for vm %d trace id %q, want %q", d.VM, d.TraceID, tc.TraceID)
		}
	}

	// An untraced admission must not grow the store.
	before := spans.Spans(obs.SpanFilter{})
	if _, err := c.Admit(context.Background(), []api.AdmitRequest{
		{ID: 3, Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 30},
	}); err != nil {
		t.Fatal(err)
	}
	if after := spans.Spans(obs.SpanFilter{}); after[len(after)-1].Seq != before[len(before)-1].Seq {
		t.Fatalf("untraced admission recorded %d spans", after[len(after)-1].Seq-before[len(before)-1].Seq)
	}
}

// TestEnergySampling: the recorder's series is strictly monotone in
// clock, its newest cumulative total matches State().TotalEnergy
// exactly, and integrating the rate over the series reproduces the
// ledger's delta — the /v1/debug/energy acceptance property.
func TestEnergySampling(t *testing.T) {
	energy := obs.NewEnergyRecorder(128)
	c := mustOpen(t, Config{Servers: testServers(4), IdleTimeout: 2, Energy: energy})
	defer c.Close()

	ctx := context.Background()
	mustAdmit(t, c,
		api.AdmitRequest{ID: 1, Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 120},
		api.AdmitRequest{ID: 2, Demand: model.Resources{CPU: 2, Mem: 2}, DurationMinutes: 120},
	)
	for _, minute := range []int{10, 20, 45} {
		if err := c.AdvanceTo(minute); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Release(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AdvanceTo(90); err != nil {
		t.Fatal(err)
	}

	samples, _, _ := energy.Samples(-1, 0)
	if len(samples) < 4 {
		t.Fatalf("only %d samples recorded", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Clock <= samples[i-1].Clock {
			t.Fatalf("non-monotone clock series at %d: %+v", i, samples)
		}
		if samples[i].TotalWattMinutes < samples[i-1].TotalWattMinutes {
			t.Fatalf("energy ledger went backwards at %d", i)
		}
	}

	st := c.State()
	last := samples[len(samples)-1]
	if last.Clock != st.Now {
		t.Fatalf("newest sample clock %d, state now %d", last.Clock, st.Now)
	}
	if last.TotalWattMinutes != st.TotalEnergy {
		t.Fatalf("newest sample total %g, state energy %g (want exact equality)",
			last.TotalWattMinutes, st.TotalEnergy)
	}

	// ∫rate dt over the series == E_last − E_first, within float rounding.
	var integral float64
	for i := 1; i < len(samples); i++ {
		integral += samples[i].RateWatts * float64(samples[i].Clock-samples[i-1].Clock) / 60
	}
	want := last.TotalWattMinutes - samples[0].TotalWattMinutes
	if math.Abs(integral-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Fatalf("rate integral %g != ΔTotal %g", integral, want)
	}

	// Utilization fields are populated while servers are active.
	if last.Active == 0 || last.Residents != 1 {
		t.Fatalf("newest sample fleet view %+v", last)
	}
	cu, ok := last.Classes["default"]
	if !ok || cu.Active != last.Active || cu.Utilization <= 0 || cu.Utilization > 1 {
		t.Fatalf("class usage %+v", last.Classes)
	}
}
