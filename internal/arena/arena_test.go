package arena

import (
	"strings"
	"testing"

	"vmalloc/internal/model"
	"vmalloc/internal/obs"
	"vmalloc/internal/online"
)

func testServers(n int) []model.Server {
	out := make([]model.Server, n)
	for i := range out {
		out[i] = model.Server{
			ID:             i + 1,
			Capacity:       model.Resources{CPU: 10, Mem: 16},
			PIdle:          100,
			PPeak:          200,
			TransitionTime: 1,
		}
	}
	return out
}

// rejectAllPolicy is the maximally divergent challenger: it refuses
// every VM, so its divergence count must equal the champion's
// acceptance count.
type rejectAllPolicy struct{}

func (rejectAllPolicy) Name() string { return "test/reject-all" }

func (rejectAllPolicy) Place(f *online.FleetView, v model.VM) (int, error) {
	return 0, &online.NoCapacityError{VM: v}
}

func vm(id int, cpu float64, start, end int) model.VM {
	return model.VM{ID: id, Demand: model.Resources{CPU: cpu, Mem: 1}, Start: start, End: end}
}

func newArena(t *testing.T, n int, rec *obs.FlightRecorder, challengers ...Challenger) *Arena {
	t.Helper()
	a, err := New(testServers(n), 2, rec, challengers)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRegisterValidation(t *testing.T) {
	mc := &online.MinCostPolicy{}
	for _, bad := range [][]Challenger{
		{{Name: "", Policy: mc}},
		{{Name: "x"}},
		{{Name: "mincost", Policy: mc}, {Name: "mincost", Policy: mc}},
	} {
		if _, err := New(testServers(2), 2, nil, bad); err == nil {
			t.Errorf("challengers %+v accepted", bad)
		}
	}
	a := newArena(t, 2, nil, Challenger{"mincost", mc})
	if got := a.Reports(); len(got) != 1 || got[0].Name != "mincost" {
		t.Fatalf("reports = %+v", got)
	}
}

// TestCounterfactualScoring drives one batch, a release and a tick
// through two challengers with known behavior and checks every counter
// the reports, the flight recorder and the metrics expose.
func TestCounterfactualScoring(t *testing.T) {
	rec := obs.NewFlightRecorder(64)
	a := newArena(t, 2, rec, Challenger{"mincost", &online.MinCostPolicy{}}, Challenger{"reject-all", rejectAllPolicy{}})

	// Champion accepted VM 1 on server ID 1 and rejected VM 2 (demand 100
	// fits nowhere, so every sane challenger rejects it too).
	a.Batch(1, []AdmitOutcome{
		{RequestID: "r1", VM: vm(1, 1, 1, 30), Server: 1, Accepted: true},
		{RequestID: "r2", VM: vm(2, 100, 1, 30), Server: 0, Accepted: false},
	})
	a.Release(5, 1)
	a.Tick(40)

	if got := a.Batches(); got != 1 {
		t.Fatalf("batches = %d", got)
	}
	reports := a.Reports()
	if len(reports) != 2 {
		t.Fatalf("got %d reports", len(reports))
	}
	// Sorted by name: mincost first.
	mc, ra := reports[0], reports[1]
	if mc.Name != "mincost" || ra.Name != "reject-all" {
		t.Fatalf("report order: %s, %s", mc.Name, ra.Name)
	}
	if mc.Decisions != 2 || mc.Divergences != 0 || mc.Rejections != 1 {
		t.Fatalf("mincost report = %+v", mc)
	}
	if mc.ChampionRejections != 1 {
		t.Fatalf("championRejections = %d", mc.ChampionRejections)
	}
	if mc.Clock != 40 || mc.Residents != 0 {
		t.Fatalf("mincost clock/residents = %d/%d", mc.Clock, mc.Residents)
	}
	if !(mc.EnergyWattMinutes > 0) {
		t.Fatalf("mincost counterfactual energy = %g, want > 0 (it hosted VM 1)", mc.EnergyWattMinutes)
	}
	// reject-all diverges exactly on the champion's acceptance.
	if ra.Decisions != 2 || ra.Divergences != 1 || ra.Rejections != 2 {
		t.Fatalf("reject-all report = %+v", ra)
	}

	// One OpShadow decision per challenger per admission, stamped with
	// the challenger and the champion's verdict.
	ds := rec.Decisions(obs.Filter{Op: obs.OpShadow})
	if len(ds) != 4 {
		t.Fatalf("got %d shadow decisions, want 4", len(ds))
	}
	var divergent int
	var woken obs.Decision
	for _, d := range ds {
		if d.Policy == "" || d.RequestID == "" {
			t.Fatalf("shadow decision missing policy or request id: %+v", d)
		}
		if d.Divergent {
			divergent++
		}
		if d.Policy == "mincost" && d.VM == 1 {
			woken = d
		}
	}
	if divergent != 1 {
		t.Fatalf("recorded %d divergent decisions, want 1", divergent)
	}
	// mincost wakes a sleeping server (TransitionTime 1) for VM 1, so the
	// 30-minute VM asked for 1–30 runs 2–31, as the champion records it.
	if woken.Start != 2 || woken.End != 31 {
		t.Errorf("mincost recorded VM 1 at %d–%d, want 2–31", woken.Start, woken.End)
	}

	var sb strings.Builder
	a.WriteMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		"vmalloc_arena_batches_total 1",
		"vmalloc_arena_champion_rejections_total 1",
		`vmalloc_arena_decisions_total{policy="mincost"} 2`,
		`vmalloc_arena_divergences_total{policy="reject-all"} 1`,
		`vmalloc_arena_rejections_total{policy="reject-all"} 2`,
		`vmalloc_arena_energy_watt_minutes{policy="mincost"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestEveryEventReachesTheReplica hands the arena a thousand clock ticks
// and one admission in a row: every event must land, so the replica ends
// at the admission's start minute with the VM resident.
func TestEveryEventReachesTheReplica(t *testing.T) {
	a := newArena(t, 2, nil, Challenger{"mincost", &online.MinCostPolicy{}})
	for i := 1; i <= 1000; i++ {
		a.Tick(i)
	}
	a.Batch(1, []AdmitOutcome{{RequestID: "r1", VM: vm(1, 1, 1001, 1100), Server: 1, Accepted: true}})
	if r := a.Reports()[0]; r.Clock != 1001 || r.Residents != 1 {
		t.Fatalf("replica clock %d with %d residents, want 1001 with 1", r.Clock, r.Residents)
	}
}

func TestNilArenaIsSafe(t *testing.T) {
	var a *Arena
	a.Batch(1, []AdmitOutcome{{VM: vm(1, 1, 1, 2), Server: 1, Accepted: true}})
	a.Release(1, 1)
	a.Tick(1)
	if reports, batches := a.Reports(), a.Batches(); reports != nil || batches != 0 {
		t.Fatalf("reports = %v, batches = %d", reports, batches)
	}
	var sb strings.Builder
	a.WriteMetrics(&sb)
	if sb.Len() != 0 {
		t.Fatalf("nil arena wrote metrics: %q", sb.String())
	}
}
