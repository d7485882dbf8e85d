package search

import (
	"context"
	"math"
	"testing"

	"vmalloc/internal/baseline"
	"vmalloc/internal/core"
	"vmalloc/internal/energy"
	"vmalloc/internal/ilp"
	"vmalloc/internal/model"
	"vmalloc/internal/workload"
)

func genInstance(t *testing.T, seed int64, n, k int) model.Instance {
	t.Helper()
	inst, err := workload.Generate(
		workload.Spec{NumVMs: n, MeanInterArrival: 2, MeanLength: 40},
		workload.FleetSpec{NumServers: k, TransitionTime: 1},
		seed,
	)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestImproveNeverWorsensAndStaysFeasible(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		inst := genInstance(t, seed, 60, 30)
		base, err := baseline.NewFFPS(core.WithSeed(seed)).Allocate(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		place, final, stats, err := (&Improver{Seed: seed}).Improve(inst, base.Placement)
		if err != nil {
			t.Fatal(err)
		}
		if err := ilp.CheckPlacement(inst, place); err != nil {
			t.Fatalf("seed %d: improved placement infeasible: %v", seed, err)
		}
		want, err := energy.EvaluateObjective(inst, place)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(want.Total()-final) > 1e-6 {
			t.Fatalf("seed %d: reported %g != evaluator %g", seed, final, want.Total())
		}
		if final > base.Energy.Total()+1e-6 {
			t.Fatalf("seed %d: search worsened energy %g -> %g", seed, base.Energy.Total(), final)
		}
		if math.Abs(stats.Start-base.Energy.Total()) > 1e-6 {
			t.Errorf("seed %d: stats.Start %g != base %g", seed, stats.Start, base.Energy.Total())
		}
		if improved := (stats.Start - stats.Final) / stats.Start; improved < 0 || improved > 1 {
			t.Errorf("seed %d: improved %g of the start energy", seed, improved)
		}
	}
}

func TestImproveFFPSSubstantially(t *testing.T) {
	inst := genInstance(t, 3, 80, 40)
	base, err := baseline.NewFFPS(core.WithSeed(3)).Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	_, final, stats, err := (&Improver{Seed: 3}).Improve(inst, base.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := 1 - final/base.Energy.Total(); ratio < 0.15 {
		t.Errorf("search only shaved %.1f%% off FFPS (rounds %d, moves %d+%d)",
			100*ratio, stats.Rounds, stats.Relocations, stats.Swaps)
	}
}

func TestImproveMinCostFindsLittle(t *testing.T) {
	inst := genInstance(t, 4, 80, 40)
	base, err := core.NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	_, final, _, err := (&Improver{Seed: 4}).Improve(inst, base.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := 1 - final/base.Energy.Total(); ratio > 0.15 {
		t.Errorf("search found %.1f%% on a MinCost placement — the heuristic should not be that loose", 100*ratio)
	}
}

func TestImproveTowardOptimumOnTiny(t *testing.T) {
	// On exhaustively-solvable instances, MinCost+search must land between
	// MinCost and the optimum.
	for seed := int64(10); seed < 16; seed++ {
		inst := genInstance(t, seed, 6, 3)
		heur, err := core.NewMinCost().Allocate(context.Background(), inst)
		if err != nil {
			continue
		}
		_, improved, _, err := (&Improver{Seed: seed}).Improve(inst, heur.Placement)
		if err != nil {
			t.Fatal(err)
		}
		_, opt, _, err := (&ilp.BranchAndBound{}).Solve(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		if improved < opt-1e-6 {
			t.Fatalf("seed %d: search result %g beats the optimum %g", seed, improved, opt)
		}
		if improved > heur.Energy.Total()+1e-6 {
			t.Fatalf("seed %d: search worsened the heuristic", seed)
		}
	}
}

func TestImproveDeterministic(t *testing.T) {
	inst := genInstance(t, 5, 50, 25)
	base, err := baseline.NewFFPS(core.WithSeed(5)).Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	p1, e1, _, err := (&Improver{Seed: 9}).Improve(inst, base.Placement)
	if err != nil {
		t.Fatal(err)
	}
	p2, e2, _, err := (&Improver{Seed: 9}).Improve(inst, base.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatalf("nondeterministic: %g vs %g", e1, e2)
	}
	for id := range p1 {
		if p1[id] != p2[id] {
			t.Fatalf("placements differ for vm %d", id)
		}
	}
}

func TestImproveSwapOnlyWhenRelocationStuck(t *testing.T) {
	// Two servers sized so each holds exactly one of the two concurrent
	// VMs: relocation can never move anything (no spare capacity), but a
	// swap exchanges the mis-assigned pair.
	cheap := model.Server{ID: 1, Capacity: model.Resources{CPU: 4, Mem: 8}, PIdle: 40, PPeak: 90, TransitionTime: 1}
	costly := model.Server{ID: 2, Capacity: model.Resources{CPU: 4, Mem: 8}, PIdle: 100, PPeak: 220, TransitionTime: 1}
	long := model.VM{ID: 1, Demand: model.Resources{CPU: 4, Mem: 4}, Start: 1, End: 100}
	short := model.VM{ID: 2, Demand: model.Resources{CPU: 4, Mem: 4}, Start: 1, End: 10}
	inst := model.NewInstance([]model.VM{long, short}, []model.Server{cheap, costly})

	// Mis-assign: long VM on the costly server.
	bad := map[int]int{1: 2, 2: 1}
	place, final, stats, err := (&Improver{Seed: 1, MaxRounds: 50}).Improve(inst, bad)
	if err != nil {
		t.Fatal(err)
	}
	badEnergy, err := energy.EvaluateObjective(inst, bad)
	if err != nil {
		t.Fatal(err)
	}
	if final >= badEnergy.Total() {
		t.Fatalf("swap search did not improve: %g vs %g (stats %+v)", final, badEnergy.Total(), stats)
	}
	if place[1] != 1 || place[2] != 2 {
		t.Errorf("expected the long VM on the cheap server: %v", place)
	}
	if stats.Swaps == 0 {
		t.Errorf("improvement without swaps? %+v", stats)
	}
	// With swaps disabled, the search must be stuck.
	_, stuck, _, err := (&Improver{Seed: 1, DisableSwaps: true}).Improve(inst, bad)
	if err != nil {
		t.Fatal(err)
	}
	if stuck != badEnergy.Total() {
		t.Errorf("relocation-only search moved a full server: %g vs %g", stuck, badEnergy.Total())
	}
}

func TestImproveErrors(t *testing.T) {
	inst := genInstance(t, 6, 10, 5)
	im := &Improver{}
	if _, _, _, err := im.Improve(model.Instance{}, nil); err == nil {
		t.Error("invalid instance accepted")
	}
	if _, _, _, err := im.Improve(inst, map[int]int{}); err == nil {
		t.Error("unplaced VMs accepted")
	}
	if _, _, _, err := im.Improve(inst, map[int]int{inst.VMs[0].ID: 999}); err == nil {
		t.Error("unknown server accepted")
	}
	// Infeasible input: everything on one small server.
	over := make(map[int]int, len(inst.VMs))
	for _, v := range inst.VMs {
		over[v.ID] = inst.Servers[0].ID
	}
	if _, _, _, err := im.Improve(inst, over); err == nil {
		t.Log("note: all-on-one happened to be feasible for this draw")
	}
}
