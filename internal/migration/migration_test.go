package migration

import (
	"context"
	"math"
	"testing"

	"vmalloc/internal/baseline"
	"vmalloc/internal/core"
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

func TestConfigValidate(t *testing.T) {
	if err := (Config{Interval: 10}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{Interval: 0}).Validate(); err == nil {
		t.Error("zero interval accepted")
	}
	if err := (Config{Interval: 5, CostPerGB: -1}).Validate(); err == nil {
		t.Error("negative cost accepted")
	}
}

func TestFromPlacementAndValidate(t *testing.T) {
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 10, 2, 2), vm(2, 5, 15, 2, 2)},
		[]model.Server{srv(1, 10, 16, 100, 200, 1)},
	)
	s, err := FromPlacement(inst, map[int]int{1: 1, 2: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.checked(inst); err != nil {
		t.Errorf("checked: %v", err)
	}
	if _, err := FromPlacement(inst, map[int]int{1: 1}); err == nil {
		t.Error("unplaced VM accepted")
	}
}

func TestScheduleValidateRejects(t *testing.T) {
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 10, 6, 6), vm(2, 1, 10, 6, 6)},
		[]model.Server{srv(1, 10, 16, 100, 200, 1), srv(2, 10, 16, 100, 200, 1)},
	)
	tests := []struct {
		name string
		s    Schedule
	}{
		{"missing pieces", Schedule{1: {{ServerID: 1, Start: 1, End: 10}}}},
		{"gap in tiling", Schedule{
			1: {{ServerID: 1, Start: 1, End: 4}, {ServerID: 2, Start: 6, End: 10}},
			2: {{ServerID: 2, Start: 1, End: 10}},
		}},
		{"short tiling", Schedule{
			1: {{ServerID: 1, Start: 1, End: 8}},
			2: {{ServerID: 2, Start: 1, End: 10}},
		}},
		{"unknown server", Schedule{
			1: {{ServerID: 9, Start: 1, End: 10}},
			2: {{ServerID: 2, Start: 1, End: 10}},
		}},
		{"capacity violation", Schedule{
			1: {{ServerID: 1, Start: 1, End: 10}},
			2: {{ServerID: 1, Start: 1, End: 10}},
		}},
		{"inverted piece", Schedule{
			1: {{ServerID: 1, Start: 1, End: 10}},
			2: {{ServerID: 2, Start: 1, End: 0}},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.s.checked(inst); err == nil {
				t.Error("invalid schedule accepted")
			}
		})
	}
}

func TestEvaluateMatchesPlainEvaluatorWithoutMoves(t *testing.T) {
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 10, 2, 2), vm(2, 4, 20, 3, 3)},
		[]model.Server{srv(1, 10, 16, 100, 200, 1), srv(2, 10, 16, 80, 160, 1)},
	)
	placement := map[int]int{1: 1, 2: 2}
	s, err := FromPlacement(inst, placement)
	if err != nil {
		t.Fatal(err)
	}
	got, mig, err := Evaluate(inst, s, 5)
	if err != nil {
		t.Fatal(err)
	}
	if mig != 0 {
		t.Errorf("migration cost %g for unmigrated schedule", mig)
	}
	want, err := energy.EvaluateObjective(inst, placement)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Total()-want.Total()) > 1e-9 {
		t.Errorf("schedule energy %g != placement energy %g", got.Total(), want.Total())
	}
}

func TestEvaluateSplitPreservesRunCost(t *testing.T) {
	// Splitting a VM across two identical servers keeps the run cost but
	// adds migration cost and (generally) activity cost.
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 10, 2, 4)},
		[]model.Server{srv(1, 10, 16, 100, 200, 1), srv(2, 10, 16, 100, 200, 1)},
	)
	whole := Schedule{1: {{ServerID: 1, Start: 1, End: 10}}}
	split := Schedule{1: {{ServerID: 1, Start: 1, End: 5}, {ServerID: 2, Start: 6, End: 10}}}
	ew, _, err := Evaluate(inst, whole, 3)
	if err != nil {
		t.Fatal(err)
	}
	es, mig, err := Evaluate(inst, split, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ew.Run-es.Run) > 1e-9 {
		t.Errorf("run cost changed by split: %g vs %g", ew.Run, es.Run)
	}
	if mig != 3*4 {
		t.Errorf("migration cost = %g, want 12 (one 4-GB move at 3/GB)", mig)
	}
	if es.Transition <= ew.Transition {
		t.Errorf("split should pay an extra transition: %g vs %g", es.Transition, ew.Transition)
	}
}

// TestConsolidatorImprovesFFPS: consolidating a wasteful FFPS placement
// must produce a valid schedule that never increases the net energy.
func TestConsolidatorImprovesFFPS(t *testing.T) {
	inst, err := workload.Generate(
		workload.Spec{NumVMs: 60, MeanInterArrival: 2, MeanLength: 40},
		workload.FleetSpec{NumServers: 30, TransitionTime: 1},
		4,
	)
	if err != nil {
		t.Fatal(err)
	}
	ffps, err := baseline.NewFFPS(core.WithSeed(4)).Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Consolidator{Config: Config{Interval: 20, CostPerGB: 2}}).Plan(inst, ffps.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Schedule.checked(inst); err != nil {
		t.Fatalf("consolidated schedule invalid: %v", err)
	}
	saved := res.Base.Total() - res.Final.Total() - res.MigrationEnergy
	if saved < 0 {
		t.Errorf("consolidation lost energy: saved %.1f (base %.1f, final %.1f, mig %.1f, %d moves)",
			saved, res.Base.Total(), res.Final.Total(), res.MigrationEnergy, len(res.Moves))
	}
	if len(res.Moves) == 0 {
		t.Error("no moves on a wasteful FFPS placement")
	}
	t.Logf("saved %.0f Wmin (%.1f%%) with %d moves",
		saved, 100*saved/res.Base.Total(), len(res.Moves))
}

// TestConsolidatorLittleToGainOnMinCost: a MinCost placement is already
// consolidated; migration must not make it worse, and should move little.
func TestConsolidatorOnMinCost(t *testing.T) {
	inst, err := workload.Generate(
		workload.Spec{NumVMs: 50, MeanInterArrival: 2, MeanLength: 30},
		workload.FleetSpec{NumServers: 25, TransitionTime: 1},
		6,
	)
	if err != nil {
		t.Fatal(err)
	}
	ours, err := core.NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Consolidator{Config: Config{Interval: 15, CostPerGB: 2}}).Plan(inst, ours.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if saved := res.Base.Total() - res.Final.Total() - res.MigrationEnergy; saved < 0 {
		t.Errorf("consolidation worsened a MinCost placement by %.1f", -saved)
	}
}

func TestConsolidatorMoveCap(t *testing.T) {
	inst, err := workload.Generate(
		workload.Spec{NumVMs: 40, MeanInterArrival: 1, MeanLength: 40},
		workload.FleetSpec{NumServers: 20, TransitionTime: 1},
		8,
	)
	if err != nil {
		t.Fatal(err)
	}
	ffps, err := baseline.NewFFPS(core.WithSeed(8)).Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	free, err := (&Consolidator{Config: Config{Interval: 10, CostPerGB: 1}}).Plan(inst, ffps.Placement)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := (&Consolidator{Config: Config{Interval: 10, CostPerGB: 1, MaxMovesPerEpoch: 1}}).Plan(inst, ffps.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Moves) > len(free.Moves) {
		t.Errorf("capped run moved more (%d) than uncapped (%d)", len(capped.Moves), len(free.Moves))
	}
}

func TestPlanErrors(t *testing.T) {
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 10, 2, 2)},
		[]model.Server{srv(1, 10, 16, 100, 200, 1)},
	)
	if _, err := (&Consolidator{}).Plan(inst, map[int]int{1: 1}); err == nil {
		t.Error("zero interval accepted")
	}
	c := &Consolidator{Config: Config{Interval: 5}}
	if _, err := c.Plan(inst, map[int]int{}); err == nil {
		t.Error("unplaced VM accepted")
	}
	if _, err := c.Plan(model.Instance{}, nil); err == nil {
		t.Error("invalid instance accepted")
	}
}
