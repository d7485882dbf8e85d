package online

import (
	"errors"
	"math"
	"testing"

	"vmalloc/internal/energy"
	"vmalloc/internal/model"
	"vmalloc/internal/workload"
)

func srv(id int, cpu, mem, pIdle, pPeak, trans float64) model.Server {
	return model.Server{
		ID:             id,
		Capacity:       model.Resources{CPU: cpu, Mem: mem},
		PIdle:          pIdle,
		PPeak:          pPeak,
		TransitionTime: trans,
	}
}

func vm(id, start, end int, cpu, mem float64) model.VM {
	return model.VM{ID: id, Demand: model.Resources{CPU: cpu, Mem: mem}, Start: start, End: end}
}

func TestStateString(t *testing.T) {
	for _, s := range []State{PowerSaving, Waking, Active, State(9)} {
		if s.String() == "" {
			t.Error("empty State string")
		}
	}
}

// TestSingleVMAccounting hand-computes the event-driven energy for one VM.
func TestSingleVMAccounting(t *testing.T) {
	// Server: α = 200·2 = 400, PIdle = 100. VM: 10 minutes, 2 CPU at
	// 10 W/CU → run 200.
	inst := model.NewInstance(
		[]model.VM{vm(1, 5, 14, 2, 2)},
		[]model.Server{srv(1, 10, 16, 100, 200, 2)},
	)
	rep, err := (&Engine{Policy: &MinCostPolicy{}, IdleTimeout: 0}).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transitions != 1 {
		t.Errorf("Transitions = %d, want 1", rep.Transitions)
	}
	if rep.Energy.Transition != 400 {
		t.Errorf("Transition energy = %g, want 400", rep.Energy.Transition)
	}
	if rep.Energy.Run != 200 {
		t.Errorf("Run energy = %g, want 200", rep.Energy.Run)
	}
	// Wake takes 2 minutes: VM starts at 7, runs to 16, server sleeps at
	// 17 (timeout 0). Active stretch [7, 17] = 10 idle-power minutes.
	if rep.Energy.Idle != 100*10 {
		t.Errorf("Idle energy = %g, want 1000", rep.Energy.Idle)
	}
	if rep.MeanStartDelay != 2 || rep.MaxStartDelay != 2 {
		t.Errorf("delays = (%g, %d), want (2, 2)", rep.MeanStartDelay, rep.MaxStartDelay)
	}
	if rep.ServersUsed != 1 {
		t.Errorf("ServersUsed = %d", rep.ServersUsed)
	}
}

// TestIdleTimeoutBridging: with a long timeout the server bridges the gap
// between two VMs (one transition); with timeout 0 it cycles (two).
func TestIdleTimeoutBridging(t *testing.T) {
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 5, 2, 2), vm(2, 20, 24, 2, 2)},
		[]model.Server{srv(1, 10, 16, 100, 200, 1)},
	)
	sleepy, err := (&Engine{Policy: &MinCostPolicy{}, IdleTimeout: 0}).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	if sleepy.Transitions != 2 {
		t.Errorf("timeout 0: transitions = %d, want 2", sleepy.Transitions)
	}
	bridgy, err := (&Engine{Policy: &MinCostPolicy{}, IdleTimeout: 30}).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	if bridgy.Transitions != 1 {
		t.Errorf("timeout 30: transitions = %d, want 1", bridgy.Transitions)
	}
	// Bridging pays idle through the gap; cycling pays a second α and a
	// second wake delay. Both must account a positive idle energy.
	if sleepy.Energy.Idle <= 0 || bridgy.Energy.Idle <= sleepy.Energy.Idle {
		t.Errorf("idle energies: sleepy %g, bridgy %g", sleepy.Energy.Idle, bridgy.Energy.Idle)
	}
	// The second VM waits for a wake-up only under the sleepy policy.
	if sleepy.MaxStartDelay != 1 || bridgy.MaxStartDelay != 1 {
		// First VM always waits 1 minute (cold fleet). Under bridging the
		// second VM starts instantly.
		t.Errorf("max delays: sleepy %d, bridgy %d", sleepy.MaxStartDelay, bridgy.MaxStartDelay)
	}
	if sleepy.MeanStartDelay <= bridgy.MeanStartDelay {
		t.Errorf("mean delays: sleepy %g should exceed bridgy %g",
			sleepy.MeanStartDelay, bridgy.MeanStartDelay)
	}
}

// TestNeverSleepKeepsServerActive: IdleTimeout < 0 disables sleeping.
func TestNeverSleep(t *testing.T) {
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 3, 2, 2), vm(2, 50, 52, 2, 2)},
		[]model.Server{srv(1, 10, 16, 100, 200, 1)},
	)
	rep, err := (&Engine{Policy: &MinCostPolicy{}, IdleTimeout: -1}).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transitions != 1 {
		t.Errorf("transitions = %d, want 1 (never sleeps again)", rep.Transitions)
	}
}

// TestCapacityIsRespectedOverDelayedStarts: delayed starts shift VM
// intervals; the engine must still never overload a server.
func TestCapacityRespected(t *testing.T) {
	// Two VMs that both fit only concurrently with 4+4 <= 10 CPU, plus a
	// third that does not fit alongside them.
	inst := model.NewInstance(
		[]model.VM{
			vm(1, 1, 10, 4, 4),
			vm(2, 1, 10, 4, 4),
			vm(3, 1, 10, 4, 4),
		},
		[]model.Server{srv(1, 10, 16, 100, 200, 1), srv(2, 10, 16, 100, 200, 1)},
	)
	rep, err := (&Engine{Policy: &MinCostPolicy{}, IdleTimeout: 0}).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, sid := range rep.Placement {
		counts[sid]++
	}
	for sid, n := range counts {
		if n > 2 {
			t.Errorf("server %d hosts %d concurrent 4-CPU VMs", sid, n)
		}
	}
}

func TestNoCapacityError(t *testing.T) {
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 5, 100, 1)},
		[]model.Server{srv(1, 10, 16, 100, 200, 1)},
	)
	_, err := (&Engine{Policy: &MinCostPolicy{}, IdleTimeout: 0}).Run(inst)
	var nce *NoCapacityError
	if !errors.As(err, &nce) || nce.VM.ID != 1 {
		t.Errorf("err = %v, want NoCapacityError for vm 1", err)
	}
	if nce != nil && nce.Error() == "" {
		t.Error("empty error string")
	}
}

func TestEngineConfigErrors(t *testing.T) {
	if _, err := (&Engine{}).Run(model.Instance{}); err == nil {
		t.Error("want error without policy")
	}
	if _, err := (&Engine{Policy: &MinCostPolicy{}}).Run(model.Instance{}); err == nil {
		t.Error("want error for invalid instance")
	}
}

// TestOnlineVsOfflineGap: the event-driven energy of the online mincost
// policy must be within a sane band of the offline clairvoyant evaluation
// of the same placement — higher (no clairvoyance, real wake-ups) but not
// wildly so.
func TestOnlineVsOfflineGap(t *testing.T) {
	inst, err := workload.Generate(
		workload.Spec{NumVMs: 80, MeanInterArrival: 2, MeanLength: 40},
		workload.FleetSpec{NumServers: 40, TransitionTime: 1},
		5,
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&Engine{Policy: &MinCostPolicy{}, IdleTimeout: 2}).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := energy.EvaluateObjective(inst, rep.Placement)
	if err != nil {
		t.Fatal(err)
	}
	online := rep.Energy.Total()
	if online < offline.Total()*0.8 {
		t.Errorf("online energy %g implausibly below offline %g", online, offline.Total())
	}
	if online > offline.Total()*2.0 {
		t.Errorf("online energy %g more than 2x offline %g", online, offline.Total())
	}
	if rep.MeanStartDelay < 0 || math.IsNaN(rep.MeanStartDelay) {
		t.Errorf("MeanStartDelay = %g", rep.MeanStartDelay)
	}
}

func TestAllPoliciesRun(t *testing.T) {
	inst, err := workload.Generate(
		workload.Spec{NumVMs: 60, MeanInterArrival: 2, MeanLength: 30},
		workload.FleetSpec{NumServers: 30, TransitionTime: 1},
		9,
	)
	if err != nil {
		t.Fatal(err)
	}
	policies := []Policy{
		&MinCostPolicy{},
		&DelayAwareMinCostPolicy{PenaltyPerMinute: 500},
		NewFirstFitPolicy(1),
		&PreferActivePolicy{},
	}
	energies := map[string]float64{}
	for _, p := range policies {
		rep, err := (&Engine{Policy: p, IdleTimeout: 2}).Run(inst)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(rep.Placement) != len(inst.VMs) {
			t.Fatalf("%s placed %d of %d VMs", p.Name(), len(rep.Placement), len(inst.VMs))
		}
		if rep.Energy.Total() <= 0 {
			t.Fatalf("%s: non-positive energy", p.Name())
		}
		energies[p.Name()] = rep.Energy.Total()
	}
	if energies["online/mincost"] > energies["online/ffps"] {
		t.Errorf("online mincost (%g) lost to online ffps (%g)",
			energies["online/mincost"], energies["online/ffps"])
	}
	// The delay-aware policy with a heavy penalty should not have a
	// larger mean delay than plain mincost on the same instance.
	plain, _ := (&Engine{Policy: &MinCostPolicy{}, IdleTimeout: 2}).Run(inst)
	aware, _ := (&Engine{Policy: &DelayAwareMinCostPolicy{PenaltyPerMinute: 1e6}, IdleTimeout: 2}).Run(inst)
	if aware.MeanStartDelay > plain.MeanStartDelay+1e-9 {
		t.Errorf("delay-aware mean delay %g exceeds plain %g",
			aware.MeanStartDelay, plain.MeanStartDelay)
	}
}

// TestDelayPenaltyRefused: a negative or non-finite delay penalty would
// price delays below zero or as NaN, so neither NewPolicy nor a
// hand-built DelayAwareMinCostPolicy prices with one. Zero, the default
// and a huge finite penalty are accepted, and only delay-aware reads it.
func TestDelayPenaltyRefused(t *testing.T) {
	fl := NewFleet([]model.Server{srv(1, 8, 8, 100, 200, 1)}, 2)
	v := vm(1, 0, 9, 1, 1)
	for _, bad := range []float64{-5, math.Copysign(1e-300, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
		var pe *DelayPenaltyError
		if _, err := NewPolicy("delay-aware", bad, 1); !errors.As(err, &pe) {
			t.Errorf("NewPolicy(delay-aware, %g) error %v, want a *DelayPenaltyError", bad, err)
		}
		if _, err := (&DelayAwareMinCostPolicy{PenaltyPerMinute: bad}).Place(fl.View(), v); !errors.As(err, &pe) {
			t.Errorf("Place at penalty %g: error %v, want a *DelayPenaltyError", bad, err)
		}
		if _, err := NewPolicy("mincost", bad, 1); err != nil {
			t.Errorf("NewPolicy(mincost, %g): %v, but mincost reads no penalty", bad, err)
		}
	}
	for _, ok := range []float64{0, DefaultDelayPenalty, 1e300} {
		p, err := NewPolicy("delay-aware", ok, 1)
		if err != nil {
			t.Fatalf("NewPolicy(delay-aware, %g): %v", ok, err)
		}
		if i, err := p.Place(fl.View(), v); err != nil || i != 0 {
			t.Errorf("penalty %g: Place = %d, %v", ok, i, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	inst, err := workload.Generate(
		workload.Spec{NumVMs: 40, MeanInterArrival: 1, MeanLength: 20},
		workload.FleetSpec{NumServers: 20, TransitionTime: 1},
		3,
	)
	if err != nil {
		t.Fatal(err)
	}
	a, err := (&Engine{Policy: NewFirstFitPolicy(7), IdleTimeout: 1}).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Engine{Policy: NewFirstFitPolicy(7), IdleTimeout: 1}).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	if a.Energy.Total() != b.Energy.Total() || a.Transitions != b.Transitions {
		t.Error("same seed produced different runs")
	}
	for id, sid := range a.Placement {
		if b.Placement[id] != sid {
			t.Fatalf("placement differs for vm %d", id)
		}
	}
}
