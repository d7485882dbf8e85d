package online

import (
	"testing"

	"vmalloc/internal/ilp"
	"vmalloc/internal/model"
	"vmalloc/internal/workload"
)

// TestEngineCapacityInvariantRandom reconstructs per-server usage from the
// report's actual start times and asserts no server ever exceeds capacity,
// across policies, timeouts and seeds.
func TestEngineCapacityInvariantRandom(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		inst, err := workload.Generate(
			workload.Spec{NumVMs: 70, MeanInterArrival: 1.5, MeanLength: 35},
			workload.FleetSpec{NumServers: 35, TransitionTime: 2},
			seed,
		)
		if err != nil {
			t.Fatal(err)
		}
		for _, timeout := range []int{0, 3, -1} {
			for _, p := range []Policy{&MinCostPolicy{}, NewFirstFitPolicy(seed), &PreferActivePolicy{}} {
				rep, err := (&Engine{Policy: p, IdleTimeout: timeout}).Run(inst)
				if err != nil {
					t.Fatalf("seed %d %s timeout %d: %v", seed, p.Name(), timeout, err)
				}
				assertCapacity(t, inst, rep)
			}
		}
	}
}

// assertCapacity shifts each VM to its reported start and checks the
// realised placement with ilp.CheckPlacement (Eq. 9–11); NewInstance
// recomputes the horizon past any wake-up delay.
func assertCapacity(t *testing.T, inst model.Instance, rep *Report) {
	t.Helper()
	shifted := make([]model.VM, len(inst.VMs))
	for i, v := range inst.VMs {
		start, ok := rep.Starts[v.ID]
		if !ok {
			t.Fatalf("%s: vm %d has no start time", rep.Policy, v.ID)
		}
		if start < v.Start {
			t.Fatalf("%s: vm %d started at %d before its request time %d",
				rep.Policy, v.ID, start, v.Start)
		}
		v.Start, v.End = start, start+v.Duration()-1
		shifted[i] = v
	}
	if err := ilp.CheckPlacement(model.NewInstance(shifted, inst.Servers), rep.Placement); err != nil {
		t.Fatalf("%s: %v", rep.Policy, err)
	}
}
