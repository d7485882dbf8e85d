package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"vmalloc/internal/arena"
	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/online"
	"vmalloc/internal/workload"
)

// TestArenaNeutrality is the shadow-arena acceptance harness: the same
// seeded diurnal schedule runs twice against fresh clusters — once with
// three shadow challengers attached, once with the arena off — and the
// two runs must be byte-identical in both outcome and state digests
// (the arena never touches the live placement path). Meanwhile the
// arena-on run must actually evaluate the traffic: every challenger
// scores every admission, and the "control" challenger — the same
// policy as the live champion — must reproduce the champion's decisions
// exactly, down to the float energy accumulation of its replica fleet.
// Run under -race; /v1/policies is polled concurrently with the load,
// and every poll must already agree with the live fleet.
func TestArenaNeutrality(t *testing.T) {
	spec := ScheduleSpec{
		Arrivals: workload.DiurnalSpec{
			NumVMs: 500, MeanInterArrival: 0.3, MeanLength: 30, PeakToTrough: 3, Period: 360,
		},
		ReleaseFraction: 0.3,
		Seed:            20260807,
	}
	if testing.Short() {
		spec.Arrivals.NumVMs = 150
	}
	sched, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Arena-on run.
	repOn, on := runArenaLoad(t, sched, []arena.Challenger{
		{Name: "control", Policy: &online.MinCostPolicy{}}, // same policy as the live champion
		{Name: "delay-aware", Policy: &online.DelayAwareMinCostPolicy{PenaltyPerMinute: 50}},
		{Name: "ffps", Policy: online.NewFirstFitPolicy(7)},
	})

	// Arena-off control run.
	repOff, _ := runArenaLoad(t, sched, nil)

	// Neutrality: digests byte-identical with and without the arena.
	if repOn.OutcomeDigest != repOff.OutcomeDigest {
		t.Fatalf("outcome digest changed with arena on:\non:  %s\noff: %s",
			repOn.OutcomeDigest, repOff.OutcomeDigest)
	}
	if repOn.StateDigest == "" || repOn.StateDigest != repOff.StateDigest {
		t.Fatalf("state digest changed with arena on:\non:  %s\noff: %s",
			repOn.StateDigest, repOff.StateDigest)
	}

	// The runner's report picked up the arena table over /v1/policies.
	if repOn.Champion != "online/mincost" {
		t.Fatalf("report champion = %q", repOn.Champion)
	}
	if repOn.ArenaBatches == 0 {
		t.Fatal("report shows zero evaluated batches")
	}
	if len(repOn.Policies) != 3 {
		t.Fatalf("report carries %d policy rows, want 3", len(repOn.Policies))
	}

	reports := on.Challengers
	if on.Batches == 0 || len(reports) != 3 {
		t.Fatalf("arena replayed %d batches with %d reports", on.Batches, len(reports))
	}
	var divergences uint64
	for _, r := range reports {
		if r.Decisions == 0 {
			t.Fatalf("challenger %s evaluated no admissions", r.Name)
		}
		if int(r.Decisions) != repOn.Sent {
			t.Fatalf("challenger %s judged %d admissions, runner sent %d", r.Name, r.Decisions, repOn.Sent)
		}
		if r.Clock != on.Now {
			t.Fatalf("challenger %s replica clock %d, live clock %d", r.Name, r.Clock, on.Now)
		}
		divergences += r.Divergences
	}
	if divergences == 0 {
		t.Fatal("no challenger ever diverged from the champion (ffps should)")
	}

	// The control challenger runs the champion's own policy on the same
	// event stream, so it must be a perfect counterfactual: zero
	// divergence, the champion's rejection count, and — because replica
	// and live fleet perform the identical operation sequence — exactly
	// the live fleet's float energy, not merely close to it.
	control := reports[0] // name-sorted: control < delay-aware < ffps
	if control.Name != "control" {
		t.Fatalf("report order: %v", []string{reports[0].Name, reports[1].Name, reports[2].Name})
	}
	if control.Divergences != 0 {
		t.Fatalf("control challenger diverged %d times from its own policy", control.Divergences)
	}
	if int(control.Rejections) != repOn.Rejected {
		t.Fatalf("control rejections %d, live rejected %d", control.Rejections, repOn.Rejected)
	}
	if control.ChampionRejections != control.Rejections {
		t.Fatalf("control saw %d champion rejections, made %d itself",
			control.ChampionRejections, control.Rejections)
	}
	if control.EnergyWattMinutes != on.EnergyWattMinutes {
		t.Fatalf("control counterfactual energy %g != live energy %g (want exact equality)",
			control.EnergyWattMinutes, on.EnergyWattMinutes)
	}
	t.Logf("arena: %d batches, control energy %.2f Wmin == live; divergences: delay-aware %d, ffps %d",
		on.Batches, control.EnergyWattMinutes, reports[1].Divergences, reports[2].Divergences)
}

// runArenaLoad runs the schedule against a fresh volatile cluster
// scoring shadows (none when nil) and returns the report plus the
// cluster's final policies readout. /v1/policies is polled concurrently
// with the load, and every poll must show each replica at the live clock
// and the control challenger at exactly the live energy.
func runArenaLoad(t *testing.T, sched *Schedule, shadows []arena.Challenger) (*Report, cluster.Policies) {
	t.Helper()
	cl, err := cluster.Open(cluster.Config{
		Servers:     testServers(16),
		IdleTimeout: 5,
		Shadows:     shadows,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := httptest.NewServer(clusterhttp.New(cl, clusterhttp.Config{}))
	defer srv.Close()

	readCtx, stopReads := context.WithCancel(context.Background())
	readsDone := make(chan struct{})
	polls := 0
	go func() {
		defer close(readsDone)
		reader := NewClient(srv.URL)
		for readCtx.Err() == nil {
			pr, err := reader.Policies(readCtx)
			if err != nil {
				if readCtx.Err() == nil {
					t.Errorf("concurrent policies read: %v", err)
				}
				return
			}
			polls++
			for _, p := range pr.Policies {
				if p.Clock != pr.Now {
					t.Errorf("poll %d: challenger %s at minute %d, live clock %d", polls, p.Name, p.Clock, pr.Now)
				}
				if p.Name == "control" && p.EnergyDeltaWattMinutes != 0 {
					t.Errorf("poll %d: control energy delta %g, want 0", polls, p.EnergyDeltaWattMinutes)
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	client := NewClient(srv.URL)
	r := &Runner{
		Client:   client,
		Schedule: sched,
		// No consolidation: migrations are live-only repairs the arena
		// does not replay, so the exact-energy control check requires a
		// migration-free run.
		Opts: Options{Workers: 4, Chunk: 0},
	}
	rep, err := r.Run(context.Background())
	stopReads()
	<-readsDone
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("run reported %d errors", rep.Errors)
	}
	if polls == 0 {
		t.Error("no /v1/policies poll completed during the run")
	}
	return rep, cl.Policies()
}
