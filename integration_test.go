package vmalloc_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"vmalloc"
	"vmalloc/internal/experiments"
)

// TestPipelineEndToEnd drives the whole system the way a downstream user
// would: generate → allocate with every algorithm → verify → measure →
// consolidate → replay online → export/import the trace — asserting the
// cross-module invariants at each step.
func TestPipelineEndToEnd(t *testing.T) {
	inst, err := vmalloc.Generate(
		vmalloc.WorkloadSpec{NumVMs: 80, MeanInterArrival: 2, MeanLength: 40},
		vmalloc.FleetSpec{NumServers: 40, TransitionTime: 1},
		77,
	)
	if err != nil {
		t.Fatal(err)
	}

	// 1. Offline allocation + verification.
	ours, err := vmalloc.NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	ffps, err := vmalloc.NewFFPS(vmalloc.WithSeed(77)).Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*vmalloc.Result{ours, ffps} {
		if err := vmalloc.CheckPlacement(inst, res.Placement); err != nil {
			t.Fatalf("%s: %v", res.Allocator, err)
		}
	}
	reduction := vmalloc.ReductionRatio(ours.Energy, ffps.Energy)
	if reduction <= 0 {
		t.Errorf("no energy saved: %v", reduction)
	}

	// 2. Migration on the FFPS placement narrows but must not close the
	// gap to MinCost for free.
	cons := &vmalloc.Consolidator{Config: vmalloc.MigrationConfig{Interval: 20, CostPerGB: 2}}
	migrated, err := cons.Plan(inst, ffps.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if saved := migrated.Base.Total() - migrated.Final.Total() - migrated.MigrationEnergy; saved < 0 {
		t.Errorf("migration lost energy: %g", saved)
	}
	finalFFPS := migrated.Final.Total() + migrated.MigrationEnergy
	if finalFFPS > ffps.Energy.Total()+1e-9 {
		t.Errorf("migrated FFPS (%g) worse than plain FFPS (%g)", finalFFPS, ffps.Energy.Total())
	}

	// 3. The online engine on the same instance: energy above the offline
	// clairvoyant MinCost, placements valid.
	rep, err := (&vmalloc.OnlineEngine{Policy: &vmalloc.OnlineMinCost{}, IdleTimeout: 2}).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Placement) != len(inst.VMs) {
		t.Fatalf("online placed %d of %d", len(rep.Placement), len(inst.VMs))
	}
	if rep.Energy.Total() < ours.Energy.Total()*0.95 {
		t.Errorf("online energy %g implausibly beats clairvoyant offline %g",
			rep.Energy.Total(), ours.Energy.Total())
	}

	// 4. Trace round trip preserves the workload; refit recovers the spec
	// scale.
	var buf bytes.Buffer
	if err := vmalloc.WriteTraceCSV(&buf, inst.VMs); err != nil {
		t.Fatal(err)
	}
	vms, err := vmalloc.ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(vms) != len(inst.VMs) {
		t.Fatalf("trace round trip lost VMs")
	}
	st := vmalloc.AnalyzeTrace(vms)
	if st.Count != 80 || st.PeakConcurrency <= 0 {
		t.Errorf("trace stats = %+v", st)
	}
	spec := st.FitSpec()
	if spec.MeanLength < 25 || spec.MeanLength > 60 {
		t.Errorf("refit mean length %g far from 40", spec.MeanLength)
	}
	// The refitted spec regenerates a similar-scale instance.
	inst2, err := vmalloc.Generate(spec, vmalloc.FleetSpec{NumServers: 40, TransitionTime: 1}, 78)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst2.VMs) != len(inst.VMs) {
		t.Errorf("regenerated instance has %d VMs", len(inst2.VMs))
	}

	// 5. On a small instance, the exact optimum lower-bounds both
	// allocators.
	small := vmalloc.NewInstance(inst.VMs[:5], inst.Servers[:3])
	if _, err := vmalloc.NewMinCost().Allocate(context.Background(), small); err == nil {
		_, opt, err := vmalloc.SolveOptimal(context.Background(), small)
		if err != nil {
			t.Fatal(err)
		}
		heur, err := vmalloc.NewMinCost().Allocate(context.Background(), small)
		if err != nil {
			t.Fatal(err)
		}
		if heur.Energy.Total() < opt-1e-6 {
			t.Errorf("heuristic %g beats optimum %g", heur.Energy.Total(), opt)
		}
	}
}

// TestCrossAllocatorInvariants checks properties that must hold between
// any pair of allocators on the same instance.
func TestCrossAllocatorInvariants(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		inst, err := vmalloc.Generate(
			vmalloc.WorkloadSpec{NumVMs: 60, MeanInterArrival: 2, MeanLength: 30},
			vmalloc.FleetSpec{NumServers: 30, TransitionTime: 1},
			seed,
		)
		if err != nil {
			t.Fatal(err)
		}
		allocators := []vmalloc.Allocator{
			vmalloc.NewMinCost(),
			vmalloc.NewFFPS(vmalloc.WithSeed(seed)),
			vmalloc.NewBestFit(),
			vmalloc.NewFirstFitByEfficiency(),
			vmalloc.NewRandomFit(vmalloc.WithSeed(seed)),
		}
		var runCosts []float64
		for _, a := range allocators {
			res, err := a.Allocate(context.Background(), inst)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, a.Name(), err)
			}
			if err := vmalloc.CheckPlacement(inst, res.Placement); err != nil {
				t.Fatalf("seed %d %s: %v", seed, a.Name(), err)
			}
			runCosts = append(runCosts, res.Energy.Run)
			util, err := vmalloc.AverageUtilization(inst, res.Placement)
			if err != nil {
				t.Fatal(err)
			}
			if util.CPU <= 0 || util.CPU > 1+1e-9 || util.Mem <= 0 || util.Mem > 1+1e-9 {
				t.Fatalf("seed %d %s: utilisation out of range %+v", seed, a.Name(), util)
			}
		}
		// Run cost varies only through server choice (W_ij depends on the
		// server); all values must be within the fleet's P¹ spread.
		for _, rc := range runCosts {
			if rc <= 0 || math.IsNaN(rc) {
				t.Fatalf("seed %d: bad run cost %g", seed, rc)
			}
		}
	}
}

// TestExperimentDeterminism: running the same experiment twice must give
// byte-identical tables (all randomness is seeded).
func TestExperimentDeterminism(t *testing.T) {
	e, err := experiments.ByID("fig5")
	if err != nil {
		t.Fatal(err)
	}
	opts := experiments.Options{Quick: true}
	a, err := e.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if _, err := a.WriteTo(&bufA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&bufB); err != nil {
		t.Fatal(err)
	}
	if bufA.String() != bufB.String() {
		t.Error("experiment output not deterministic")
	}
}
