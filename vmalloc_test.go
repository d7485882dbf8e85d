package vmalloc_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"vmalloc"
	"vmalloc/internal/migration"
)

// TestFacadeEndToEnd drives the whole public API surface the way the
// README's quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	inst, err := vmalloc.Generate(
		vmalloc.WorkloadSpec{NumVMs: 60, MeanInterArrival: 2, MeanLength: 40},
		vmalloc.FleetSpec{NumServers: 30, TransitionTime: 1},
		11,
	)
	if err != nil {
		t.Fatal(err)
	}
	allocators := []vmalloc.Allocator{
		vmalloc.NewMinCost(),
		vmalloc.NewMinCost(vmalloc.WithoutTransitionAwareness()),
		vmalloc.NewFFPS(vmalloc.WithSeed(11)),
		vmalloc.NewBestFit(),
		vmalloc.NewFirstFitByEfficiency(),
		vmalloc.NewRandomFit(vmalloc.WithSeed(11)),
	}
	energies := make(map[string]float64, len(allocators))
	for _, a := range allocators {
		res, err := a.Allocate(context.Background(), inst)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if err := vmalloc.CheckPlacement(inst, res.Placement); err != nil {
			t.Fatalf("%s: infeasible placement: %v", a.Name(), err)
		}
		re, err := vmalloc.EvaluateObjective(inst, res.Placement)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(re.Total()-res.Energy.Total()) > 1e-9 {
			t.Fatalf("%s: energy mismatch", a.Name())
		}
		util, err := vmalloc.AverageUtilization(inst, res.Placement)
		if err != nil {
			t.Fatal(err)
		}
		if util.CPU <= 0 || util.CPU > 1 || util.Mem <= 0 || util.Mem > 1 {
			t.Fatalf("%s: utilisation out of range: %+v", a.Name(), util)
		}
		energies[res.Allocator] = res.Energy.Total()
	}
	if energies["MinCost"] > energies["RandomFit"] {
		t.Errorf("MinCost (%g) should not lose to RandomFit (%g)",
			energies["MinCost"], energies["RandomFit"])
	}
	ours := vmalloc.Breakdown{Run: energies["MinCost"]}
	base := vmalloc.Breakdown{Run: energies["FFPS"]}
	if r := vmalloc.ReductionRatio(ours, base); r < -0.5 || r > 1 {
		t.Errorf("reduction ratio %g implausible", r)
	}
}

func TestFacadeCatalogs(t *testing.T) {
	if got := len(vmalloc.VMTypeCatalog()); got != 9 {
		t.Errorf("VM catalog size %d", got)
	}
	if got := len(vmalloc.ServerTypeCatalog()); got != 5 {
		t.Errorf("server catalog size %d", got)
	}
}

func TestFacadeSolveOptimal(t *testing.T) {
	st := vmalloc.ServerTypeCatalog()[0]
	inst := vmalloc.NewInstance(
		[]vmalloc.VM{
			{ID: 1, Demand: vmalloc.Resources{CPU: 2, Mem: 2}, Start: 1, End: 10},
			{ID: 2, Demand: vmalloc.Resources{CPU: 2, Mem: 2}, Start: 5, End: 15},
		},
		[]vmalloc.Server{st.NewServer(1, 1), st.NewServer(2, 1)},
	)
	placement, opt, err := vmalloc.SolveOptimal(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	// Consolidating both on one server is optimal here.
	if placement[1] != placement[2] {
		t.Errorf("optimum did not consolidate: %v", placement)
	}
	heur, err := vmalloc.NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if heur.Energy.Total() < opt-1e-9 {
		t.Errorf("heuristic %g beats optimum %g", heur.Energy.Total(), opt)
	}
}

func TestFacadeUnplaceable(t *testing.T) {
	st := vmalloc.ServerTypeCatalog()[0]
	inst := vmalloc.NewInstance(
		[]vmalloc.VM{{ID: 1, Demand: vmalloc.Resources{CPU: 999, Mem: 1}, Start: 1, End: 2}},
		[]vmalloc.Server{st.NewServer(1, 1)},
	)
	_, err := vmalloc.NewMinCost().Allocate(context.Background(), inst)
	var ue *vmalloc.UnplaceableError
	if !errors.As(err, &ue) || ue.VM.ID != 1 {
		t.Errorf("err = %v, want UnplaceableError for vm 1", err)
	}
}

// TestReadersRejectVMPastHorizon: every public reader of a placement
// validates the instance first, so a VM that ends past the horizon is an
// error, not an index out of range.
func TestReadersRejectVMPastHorizon(t *testing.T) {
	st := vmalloc.ServerTypeCatalog()[0]
	inst := vmalloc.NewInstance(
		[]vmalloc.VM{{ID: 1, Demand: vmalloc.Resources{CPU: 1, Mem: 1}, Start: 3, End: 9}},
		[]vmalloc.Server{st.NewServer(1, 1)},
	)
	inst.Horizon = 5
	placement := map[int]int{1: 1}
	sched := vmalloc.MigrationSchedule{1: {{ServerID: 1, Start: 3, End: 9}}}
	readers := []struct {
		name string
		read func() error
	}{
		{"CheckPlacement", func() error { return vmalloc.CheckPlacement(inst, placement) }},
		{"AverageUtilization", func() error { _, err := vmalloc.AverageUtilization(inst, placement); return err }},
		{"ActiveServersSeries", func() error { _, err := vmalloc.ActiveServersSeries(inst, placement); return err }},
		{"EvaluateUnderCurve", func() error {
			_, err := vmalloc.EvaluateUnderCurve(inst, placement, vmalloc.AffinePowerCurve())
			return err
		}},
		{"migration.Evaluate", func() error { _, _, err := migration.Evaluate(inst, sched, 1); return err }},
	}
	for _, r := range readers {
		t.Run(r.name, func(t *testing.T) {
			if err := r.read(); err == nil {
				t.Error("a VM past the horizon was accepted")
			}
		})
	}
}

// TestReadersSumInInstanceOrder: one placement priced 200 times gives one
// total. The curve evaluator and the schedule evaluator used to sum their
// servers in map order, which moved the total's last bits between calls.
func TestReadersSumInInstanceOrder(t *testing.T) {
	inst, err := vmalloc.Generate(
		vmalloc.WorkloadSpec{NumVMs: 400, MeanInterArrival: 2, MeanLength: 40},
		vmalloc.FleetSpec{NumServers: 80, TransitionTime: 1},
		7,
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := vmalloc.NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := migration.FromPlacement(inst, res.Placement)
	if err != nil {
		t.Fatal(err)
	}
	curve := vmalloc.PowerCurve{IdleScale: 0.3, Exponent: 1.7}
	curveTotals, scheduleTotals := map[uint64]bool{}, map[uint64]bool{}
	for call := 0; call < 200; call++ {
		b, err := vmalloc.EvaluateUnderCurve(inst, res.Placement, curve)
		if err != nil {
			t.Fatal(err)
		}
		curveTotals[math.Float64bits(b.Total())] = true
		if b, _, err = migration.Evaluate(inst, sched, 2); err != nil {
			t.Fatal(err)
		}
		scheduleTotals[math.Float64bits(b.Total())] = true
	}
	if len(curveTotals) != 1 || len(scheduleTotals) != 1 {
		t.Errorf("distinct totals over 200 calls: EvaluateUnderCurve %d, migration.Evaluate %d; want 1 each",
			len(curveTotals), len(scheduleTotals))
	}
}
