package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"vmalloc/internal/energy"
	"vmalloc/internal/model"
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

func TestMinCostConsolidates(t *testing.T) {
	// Two identical servers; two concurrent small VMs should land on the
	// same server because the second placement has no idle/transition
	// increment there.
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 10, 2, 2), vm(2, 1, 10, 2, 2)},
		[]model.Server{srv(1, 10, 16, 100, 200, 1), srv(2, 10, 16, 100, 200, 1)},
	)
	res, err := NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement[1] != res.Placement[2] {
		t.Errorf("VMs split across servers: %v", res.Placement)
	}
	if res.ServersUsed != 1 {
		t.Errorf("ServersUsed = %d, want 1", res.ServersUsed)
	}
}

func TestMinCostPrefersEfficientServer(t *testing.T) {
	// Server 2 has lower idle power and lower transition cost; a single VM
	// must go there.
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 10, 1, 1)},
		[]model.Server{srv(1, 10, 16, 150, 300, 2), srv(2, 10, 16, 80, 160, 1)},
	)
	res, err := NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement[1] != 2 {
		t.Errorf("VM on server %d, want efficient server 2", res.Placement[1])
	}
}

func TestMinCostPrefersLowTransitionCost(t *testing.T) {
	// §III: "suppose all servers are in the power-saving state, a VM would
	// be allocated on a server with less transition cost". Same power
	// curves, different transition times.
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 5, 1, 1)},
		[]model.Server{srv(1, 10, 16, 100, 200, 3), srv(2, 10, 16, 100, 200, 0.5)},
	)
	res, err := NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement[1] != 2 {
		t.Errorf("VM on server %d, want low-transition server 2", res.Placement[1])
	}
}

func TestMinCostRespectsCapacity(t *testing.T) {
	// Server 1 can hold only one of the two concurrent VMs.
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 10, 6, 6), vm(2, 1, 10, 6, 6)},
		[]model.Server{srv(1, 10, 16, 80, 160, 1), srv(2, 10, 16, 100, 200, 1)},
	)
	res, err := NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement[1] == res.Placement[2] {
		t.Errorf("capacity violated: both VMs on server %d", res.Placement[1])
	}
}

func TestMinCostReusesFreedCapacity(t *testing.T) {
	// VM 2 starts after VM 1 ends; both fit the same server sequentially.
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 5, 8, 8), vm(2, 6, 10, 8, 8)},
		[]model.Server{srv(1, 10, 16, 80, 160, 1), srv(2, 10, 16, 100, 200, 1)},
	)
	res, err := NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement[1] != 1 || res.Placement[2] != 1 {
		t.Errorf("want both VMs on adjacent segments of server 1, got %v", res.Placement)
	}
}

func TestMinCostMemoryConstraint(t *testing.T) {
	// CPU fits on server 1 but memory does not.
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 5, 1, 20)},
		[]model.Server{srv(1, 10, 16, 80, 160, 1), srv(2, 10, 32, 100, 200, 1)},
	)
	res, err := NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement[1] != 2 {
		t.Errorf("memory constraint ignored: VM on server %d", res.Placement[1])
	}

	// The ablation variant must ignore memory and pick server 1 (cheaper).
	res, err = NewMinCost(WithoutMemoryCheck()).Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement[1] != 1 {
		t.Errorf("no-memory variant: VM on server %d, want 1", res.Placement[1])
	}
}

func TestMinCostUnplaceable(t *testing.T) {
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 5, 100, 1)},
		[]model.Server{srv(1, 10, 16, 80, 160, 1)},
	)
	_, err := NewMinCost().Allocate(context.Background(), inst)
	var ue *UnplaceableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UnplaceableError", err)
	}
	if ue.VM.ID != 1 {
		t.Errorf("UnplaceableError.VM.ID = %d, want 1", ue.VM.ID)
	}
	if ue.Error() == "" {
		t.Error("empty error message")
	}
}

func TestMinCostRejectsInvalidInstance(t *testing.T) {
	if _, err := NewMinCost().Allocate(context.Background(), model.Instance{}); err == nil {
		t.Error("want error for empty instance")
	}
}

func TestMinCostDeterminism(t *testing.T) {
	inst := randomInstance(rand.New(rand.NewSource(5)), 60, 21)
	a, err := NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	for id, sid := range a.Placement {
		if b.Placement[id] != sid {
			t.Fatalf("nondeterministic placement for vm %d: %d vs %d", id, sid, b.Placement[id])
		}
	}
}

func TestMinCostEnergyMatchesEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var infeasible int
	for trial := 0; trial < 20; trial++ {
		inst := randomInstance(rng, 40, 15)
		res, err := NewMinCost().Allocate(context.Background(), inst)
		var ue *UnplaceableError
		if errors.As(err, &ue) {
			// A dense random draw can genuinely run the largest VM types
			// out of big servers; tolerate a few such trials.
			infeasible++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := energy.EvaluateObjective(inst, res.Placement)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Energy.Total()-want.Total()) > 1e-9 {
			t.Fatalf("trial %d: result energy %g != evaluator %g", trial, res.Energy.Total(), want.Total())
		}
	}
	if infeasible > 10 {
		t.Fatalf("%d/20 trials infeasible; generator too dense", infeasible)
	}
}

func TestMinCostBeatsNoTransitionVariantOnSparseLoad(t *testing.T) {
	// A sparse workload with expensive transitions: awareness of idle and
	// transition costs must not lose to blind run-cost minimisation.
	rng := rand.New(rand.NewSource(13))
	var worse int
	for trial := 0; trial < 10; trial++ {
		inst := sparseInstance(rng, 40, 10)
		full, err := NewMinCost().Allocate(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		blind, err := NewMinCost(WithoutTransitionAwareness()).Allocate(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		if full.Energy.Total() > blind.Energy.Total()+1e-9 {
			worse++
		}
	}
	if worse > 2 {
		t.Errorf("transition-aware heuristic lost on %d/10 sparse workloads", worse)
	}
}

func TestSortVMsByStart(t *testing.T) {
	inst := model.NewInstance(
		[]model.VM{vm(3, 5, 9, 1, 1), vm(1, 2, 9, 1, 1), vm(2, 2, 4, 1, 1)},
		[]model.Server{srv(1, 10, 16, 80, 160, 1)},
	)
	got := SortVMsByStart(inst)
	wantIDs := []int{1, 2, 3}
	for i, id := range wantIDs {
		if got[i].ID != id {
			t.Fatalf("order = %v, want IDs %v", got, wantIDs)
		}
	}
	// The instance itself must be untouched.
	if inst.VMs[0].ID != 3 {
		t.Error("SortVMsByStart mutated the instance")
	}
}

func TestFleetFitsAndSpare(t *testing.T) {
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 10, 4, 4)},
		[]model.Server{srv(1, 10, 16, 80, 160, 1)},
	)
	inst.Horizon = 12 // leave a free window after the VM
	f := NewFleet(inst)
	if !f.Fits(0, inst.VMs[0]) {
		t.Fatal("empty server rejects fitting VM")
	}
	f.Commit(0, inst.VMs[0])
	if got := f.SpareCPU(0, 1); got != 6 {
		t.Errorf("SpareCPU = %g, want 6", got)
	}
	if got := f.SpareMem(0, 1); got != 12 {
		t.Errorf("SpareMem = %g, want 12", got)
	}
	if f.Fits(0, vm(2, 5, 6, 7, 1)) {
		t.Error("over-CPU VM accepted")
	}
	if f.Fits(0, vm(3, 5, 6, 1, 13)) {
		t.Error("over-memory VM accepted")
	}
	if !f.Fits(0, vm(4, 11, 12, 10, 16)) {
		t.Error("full-capacity VM in a free window rejected")
	}
	if f.Fits(0, vm(5, 1, 2, 20, 1)) {
		t.Error("VM larger than total capacity accepted")
	}
	if f.ServersUsed() != 1 {
		t.Errorf("ServersUsed = %d, want 1", f.ServersUsed())
	}
}

// TestFleetExactFill holds two probes where resident + asked = capacity in
// real arithmetic (memory, of a 96 GB server), so in float64 the order of
// the sum decides. Eq. 10 admits both, and the fleet, summing the claims
// newest first, does.
//
// "ablation" is a probe the ablation really makes (inter-arrival 4,
// MinBusyTime): six residents hold 61.8 GB and the candidate asks for the
// remaining 34.2 GB. Oldest first gives 96.00000000000001 and refuses,
// which moves a cell of results_full.txt (463.0 → 461.8).
//
// "seed-12" is one no committed table reaches (MinBusyTime, 100 VMs at
// inter-arrival 1, seed 12; the ablation averages seeds 1–5): 81 GB
// resident and 15 GB asked. The segment trees this fleet replaced read the
// residents as 81.000000000000014 — rounding left by their node layout
// over the horizon, which no order over the claims reproduces — and
// refused. Nine lines of baseline's placements.golden moved with probes
// like this one when the trees left.
func TestFleetExactFill(t *testing.T) {
	for _, tt := range []struct {
		name     string
		resident []model.VM
		asked    model.VM
	}{
		{"ablation", []model.VM{
			vm(22, 96, 194, 13, 34.2),
			vm(30, 144, 220, 5, 1.7),
			vm(31, 145, 299, 1, 1.7),
			vm(33, 155, 169, 4, 7.5),
			vm(34, 159, 233, 1, 1.7),
			vm(35, 159, 211, 8, 15),
		}, vm(38, 167, 216, 13, 34.2)},
		{"seed-12", []model.VM{
			vm(2, 2, 100, 26, 68.4),
			vm(3, 3, 104, 1, 1.7),
			vm(7, 8, 45, 2, 3.75),
			vm(16, 15, 37, 2, 3.75),
			vm(25, 21, 66, 1, 1.7),
			vm(28, 25, 79, 5, 1.7),
		}, vm(36, 37, 83, 8, 15)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			f := NewFleet(model.NewInstance(tt.resident, []model.Server{srv(1, 60, 96, 210, 420, 1)}))
			for _, v := range tt.resident {
				f.Commit(0, v)
			}
			if !f.Fits(0, tt.asked) {
				t.Errorf("%g GB no longer fits exactly what the six residents leave of 96 GB", tt.asked.Demand.Mem)
			}
		})
	}
}

// The fleet's answers hold only from the commit frontier on, so it checks
// the order instead of assuming it: a commit or a probe before the latest
// commit's start panics.
func TestFleetPanicsBeforeFrontier(t *testing.T) {
	f := NewFleet(model.NewInstance(nil, []model.Server{srv(1, 10, 16, 80, 160, 1)}))
	f.Commit(0, vm(1, 5, 9, 1, 1))
	f.Commit(0, vm(2, 5, 6, 1, 1)) // an equal start is in order
	early := vm(3, 4, 9, 1, 1)
	for what, fn := range map[string]func(){
		"Commit":   func() { f.Commit(0, early) },
		"Fits":     func() { f.Fits(0, early) },
		"SpareCPU": func() { f.SpareCPU(0, 4) },
		"SpareMem": func() { f.SpareMem(0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s at minute 4, before the frontier 5, did not panic", what)
				}
			}()
			fn()
		}()
	}
	if !f.Fits(0, vm(4, 5, 9, 8, 14)) {
		t.Error("a probe at the frontier is refused")
	}
}

func TestAllocatorNames(t *testing.T) {
	tests := []struct {
		alloc Allocator
		want  string
	}{
		{NewMinCost(), "MinCost"},
		{NewMinCost(WithoutTransitionAwareness()), "MinCost/no-transition"},
		{NewMinCost(WithoutMemoryCheck()), "MinCost/no-memory"},
	}
	for _, tt := range tests {
		if got := tt.alloc.Name(); got != tt.want {
			t.Errorf("Name = %q, want %q", got, tt.want)
		}
	}
}

// randomInstance builds a dense feasible instance: n VMs over k servers
// drawn from the catalogs.
func randomInstance(rng *rand.Rand, n, k int) model.Instance {
	vmTypes := model.VMTypeCatalog()
	srvTypes := model.ServerTypeCatalog()
	vms := make([]model.VM, n)
	for i := range vms {
		vt := vmTypes[rng.Intn(len(vmTypes))]
		start := 1 + rng.Intn(80)
		vms[i] = model.VM{
			ID:     i + 1,
			Type:   vt.Name,
			Demand: vt.Resources(),
			Start:  start,
			End:    start + rng.Intn(12),
		}
	}
	// Round-robin over the larger server types so the big catalog VMs
	// always have somewhere to go.
	big := srvTypes[2:]
	servers := make([]model.Server, k)
	for i := range servers {
		servers[i] = big[i%len(big)].NewServer(i+1, 1)
	}
	return model.NewInstance(vms, servers)
}

// sparseInstance builds a light workload with long gaps and slow
// transitions, where transition-awareness matters.
func sparseInstance(rng *rand.Rand, n, k int) model.Instance {
	vmTypes := model.VMTypesByClass(model.ClassStandard)
	srvTypes := model.ServerTypeCatalog()
	vms := make([]model.VM, n)
	for i := range vms {
		vt := vmTypes[rng.Intn(len(vmTypes))]
		start := 1 + rng.Intn(500)
		vms[i] = model.VM{
			ID:     i + 1,
			Type:   vt.Name,
			Demand: vt.Resources(),
			Start:  start,
			End:    start + 1 + rng.Intn(10),
		}
	}
	servers := make([]model.Server, k)
	for i := range servers {
		servers[i] = srvTypes[i%len(srvTypes)].NewServer(i+1, 3)
	}
	return model.NewInstance(vms, servers)
}
