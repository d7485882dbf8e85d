package loadgen

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/obs"
	"vmalloc/internal/workload"
)

// TestTelemetryNeutrality is the tracing/energy acceptance harness: the
// same seeded schedule runs twice against fresh clusters — once with
// the span store and energy recorder wired, once with both off — and
// the outcome and state digests must be byte-identical (recording is
// passive; it never influences a placement). The telemetry-on run must
// meanwhile actually observe the traffic: the report's stage table is
// populated from /v1/debug/traces, and the sampled energy series
// integrates back to the reported total.
func TestTelemetryNeutrality(t *testing.T) {
	spec := ScheduleSpec{
		Arrivals: workload.DiurnalSpec{
			NumVMs: 400, MeanInterArrival: 0.3, MeanLength: 30, PeakToTrough: 3, Period: 360,
		},
		ReleaseFraction: 0.3,
		Seed:            20260808,
	}
	if testing.Short() {
		spec.Arrivals.NumVMs = 120
	}
	sched, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}

	repOn, client := runTelemetryLoad(t, sched, true)
	repOff, _ := runTelemetryLoad(t, sched, false)

	if repOn.OutcomeDigest != repOff.OutcomeDigest {
		t.Fatalf("outcome digest changed with telemetry on:\non:  %s\noff: %s",
			repOn.OutcomeDigest, repOff.OutcomeDigest)
	}
	if repOn.StateDigest == "" || repOn.StateDigest != repOff.StateDigest {
		t.Fatalf("state digest changed with telemetry on:\non:  %s\noff: %s",
			repOn.StateDigest, repOff.StateDigest)
	}

	// The runner pulled per-stage latencies out of /v1/debug/traces; the
	// telemetry-off run has none.
	if len(repOff.StageLatency) != 0 {
		t.Fatalf("telemetry-off run reports stage latencies: %+v", repOff.StageLatency)
	}
	for _, stage := range []string{obs.SpanQueue, obs.SpanScan, obs.SpanCommit} {
		sum, ok := repOn.StageLatency[stage]
		if !ok || sum.Count == 0 || sum.P50 <= 0 || sum.P99 < sum.P50 {
			t.Fatalf("stage %s summary %+v", stage, sum)
		}
	}
	// No journal directory → no fsync stage in this run.
	if _, ok := repOn.StageLatency[obs.SpanSync]; ok {
		t.Fatal("volatile run reports fsync spans")
	}
	// The human-readable report prints the stage table (satellite: vmload
	// surfaces p50/p99 per stage after a run).
	text := repOn.String()
	if !strings.Contains(text, "server stage spans") || !strings.Contains(text, obs.SpanScan) {
		t.Fatalf("report text lacks the stage table:\n%s", text)
	}

	// Energy series: monotone, and integrating rate·Δclock reproduces
	// the ledger delta, which itself matches the report's final energy.
	er, err := get[api.EnergyResponse](context.Background(), client, "/v1/debug/energy", "")
	if err != nil {
		t.Fatal(err)
	}
	if er.Count < 10 {
		t.Fatalf("only %d energy samples after a full run", er.Count)
	}
	var integral float64
	for i := 1; i < len(er.Samples); i++ {
		if er.Samples[i].Clock <= er.Samples[i-1].Clock {
			t.Fatalf("non-monotone energy series at %d", i)
		}
		integral += er.Samples[i].RateWatts * float64(er.Samples[i].Clock-er.Samples[i-1].Clock) / 60
	}
	first, last := er.Samples[0], er.Samples[len(er.Samples)-1]
	want := last.TotalWattMinutes - first.TotalWattMinutes
	if math.Abs(integral-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Fatalf("rate integral %g != ΔTotal %g", integral, want)
	}
	if last.TotalWattMinutes != repOn.FinalEnergy {
		t.Fatalf("newest sample total %g, report final energy %g", last.TotalWattMinutes, repOn.FinalEnergy)
	}
}

// runTelemetryLoad replays the schedule against a fresh volatile
// cluster, with or without the span store + energy recorder wired, and
// returns the report plus a client still pointed at the live server.
func runTelemetryLoad(t *testing.T, sched *Schedule, telemetry bool) (*Report, *Client) {
	t.Helper()
	ccfg := cluster.Config{
		Servers:     testServers(16),
		IdleTimeout: 5,
	}
	if telemetry {
		ccfg.Spans = obs.NewSpanStore(1 << 16)
		ccfg.Energy = obs.NewEnergyRecorder(1 << 12)
	}
	cl, err := cluster.Open(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	srv := httptest.NewServer(clusterhttp.New(cl, nil))
	t.Cleanup(srv.Close)

	client := NewClient(srv.URL)
	r := &Runner{
		Client:   client,
		Schedule: sched,
		Opts:     Options{Workers: 4, Chunk: 0},
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("run reported %d errors", rep.Errors)
	}
	return rep, client
}
