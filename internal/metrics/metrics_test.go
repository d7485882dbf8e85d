package metrics

import (
	"math"
	"testing"

	"vmalloc/internal/model"
)

func inst2() model.Instance {
	// Server 1: 10 CPU / 10 mem. Server 2: 20 CPU / 20 mem.
	return model.NewInstance(
		[]model.VM{
			{ID: 1, Demand: model.Resources{CPU: 5, Mem: 2}, Start: 1, End: 4},
			{ID: 2, Demand: model.Resources{CPU: 10, Mem: 5}, Start: 3, End: 6},
		},
		[]model.Server{
			{ID: 1, Capacity: model.Resources{CPU: 10, Mem: 10}, PIdle: 100, PPeak: 200},
			{ID: 2, Capacity: model.Resources{CPU: 20, Mem: 20}, PIdle: 150, PPeak: 300},
		},
	)
}

func TestAverageUtilizationHandComputed(t *testing.T) {
	inst := inst2()
	// VM1 on server 1, VM2 on server 2.
	u, err := AverageUtilization(inst, map[int]int{1: 1, 2: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Server 1 busy t=1..4 at 5/10 CPU, 2/10 mem (4 samples).
	// Server 2 busy t=3..6 at 10/20 CPU, 5/20 mem (4 samples).
	wantCPU := (4*0.5 + 4*0.5) / 8
	wantMem := (4*0.2 + 4*0.25) / 8
	if math.Abs(u.CPU-wantCPU) > 1e-12 {
		t.Errorf("CPU = %g, want %g", u.CPU, wantCPU)
	}
	if math.Abs(u.Mem-wantMem) > 1e-12 {
		t.Errorf("Mem = %g, want %g", u.Mem, wantMem)
	}
}

func TestAverageUtilizationNonzeroOnly(t *testing.T) {
	inst := inst2()
	// Both VMs on server 2: idle server 1 and idle time units must not
	// dilute the average.
	u, err := AverageUtilization(inst, map[int]int{1: 2, 2: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Server 2: t=1,2 → 5/20; t=3,4 → 15/20; t=5,6 → 10/20. 6 samples.
	wantCPU := (2*0.25 + 2*0.75 + 2*0.5) / 6
	if math.Abs(u.CPU-wantCPU) > 1e-12 {
		t.Errorf("CPU = %g, want %g", u.CPU, wantCPU)
	}
}

func TestAverageUtilizationOverlapAggregation(t *testing.T) {
	// Two VMs overlapping on the same server add their demands.
	inst := model.NewInstance(
		[]model.VM{
			{ID: 1, Demand: model.Resources{CPU: 4, Mem: 4}, Start: 1, End: 2},
			{ID: 2, Demand: model.Resources{CPU: 4, Mem: 4}, Start: 2, End: 3},
		},
		[]model.Server{{ID: 1, Capacity: model.Resources{CPU: 8, Mem: 8}, PIdle: 1, PPeak: 2}},
	)
	u, err := AverageUtilization(inst, map[int]int{1: 1, 2: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := (0.5 + 1.0 + 0.5) / 3
	if math.Abs(u.CPU-want) > 1e-12 || math.Abs(u.Mem-want) > 1e-12 {
		t.Errorf("utilization = %+v, want %g", u, want)
	}
}

// TestAverageUtilizationIgnoresFloatResidue: once both VMs have ended, the
// server is idle. A running total over a difference array leaves
// 0.1+0.2−0.1−0.2 ≈ 4e-17 behind, which counted the seven idle minutes
// as busy samples (0.08 instead of 0.8/3).
func TestAverageUtilizationIgnoresFloatResidue(t *testing.T) {
	inst := model.NewInstance(
		[]model.VM{
			{ID: 1, Demand: model.Resources{CPU: 0.1, Mem: 0.1}, Start: 1, End: 2},
			{ID: 2, Demand: model.Resources{CPU: 0.2, Mem: 0.2}, Start: 1, End: 3},
		},
		[]model.Server{{ID: 1, Capacity: model.Resources{CPU: 1, Mem: 1}, PIdle: 1, PPeak: 2}},
	)
	inst.Horizon = 10
	u, err := AverageUtilization(inst, map[int]int{1: 1, 2: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := (0.3 + 0.3 + 0.2) / 3
	if math.Abs(u.CPU-want) > 1e-12 || math.Abs(u.Mem-want) > 1e-12 {
		t.Errorf("utilization = %+v, want %.4f over 3 busy minutes", u, want)
	}
}

func TestAverageUtilizationErrors(t *testing.T) {
	inst := inst2()
	if _, err := AverageUtilization(inst, map[int]int{1: 1}); err == nil {
		t.Error("want error for unplaced VM")
	}
	if _, err := AverageUtilization(inst, map[int]int{1: 9, 2: 9}); err == nil {
		t.Error("want error for unknown server")
	}
}

func TestPeakConcurrency(t *testing.T) {
	inst := model.NewInstance(
		[]model.VM{
			{ID: 1, Demand: model.Resources{CPU: 1, Mem: 1}, Start: 1, End: 5},
			{ID: 2, Demand: model.Resources{CPU: 1, Mem: 1}, Start: 3, End: 8},
			{ID: 3, Demand: model.Resources{CPU: 1, Mem: 1}, Start: 5, End: 6},
			{ID: 4, Demand: model.Resources{CPU: 1, Mem: 1}, Start: 9, End: 9},
		},
		[]model.Server{{ID: 1, Capacity: model.Resources{CPU: 8, Mem: 8}, PIdle: 1, PPeak: 2}},
	)
	if got := PeakConcurrency(inst); got != 3 {
		t.Errorf("PeakConcurrency = %d, want 3 (t=5)", got)
	}
}

func TestActiveServersSeries(t *testing.T) {
	// Server 1: α = 200 (PPeak 200 × 1 min), PIdle 100 → bridges gaps ≤ 2.
	srv1 := model.Server{ID: 1, Capacity: model.Resources{CPU: 10, Mem: 10}, PIdle: 100, PPeak: 200, TransitionTime: 1}
	srv2 := model.Server{ID: 2, Capacity: model.Resources{CPU: 10, Mem: 10}, PIdle: 100, PPeak: 200, TransitionTime: 1}
	inst := model.NewInstance(
		[]model.VM{
			{ID: 1, Demand: model.Resources{CPU: 2, Mem: 2}, Start: 1, End: 3},
			{ID: 2, Demand: model.Resources{CPU: 2, Mem: 2}, Start: 6, End: 8},   // gap of 2 → bridged
			{ID: 3, Demand: model.Resources{CPU: 2, Mem: 2}, Start: 2, End: 4},   // on server 2
			{ID: 4, Demand: model.Resources{CPU: 2, Mem: 2}, Start: 10, End: 12}, // gap of 5 on server 2 → off
		},
		[]model.Server{srv1, srv2},
	)
	series, err := ActiveServersSeries(inst, map[int]int{1: 1, 2: 1, 3: 2, 4: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != inst.Horizon {
		t.Fatalf("series length %d, want %d", len(series), inst.Horizon)
	}
	// Server 1 active [1,8] (bridged); server 2 active [2,4] and [10,12].
	want := []int{1, 2, 2, 2, 1, 1, 1, 1, 0, 1, 1, 1}
	for i, w := range want {
		if series[i] != w {
			t.Fatalf("series = %v, want %v (differs at t=%d)", series, want, i+1)
		}
	}
	if _, err := ActiveServersSeries(inst, map[int]int{1: 1}); err == nil {
		t.Error("unplaced VM accepted")
	}
	if _, err := ActiveServersSeries(inst, map[int]int{1: 9, 2: 9, 3: 9, 4: 9}); err == nil {
		t.Error("unknown server accepted")
	}
}
