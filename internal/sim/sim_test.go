package sim

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"vmalloc/internal/workload"
)

func paperConfig(seeds int) Config {
	return Config{
		Workload: workload.Spec{NumVMs: 100, MeanInterArrival: 2, MeanLength: 5},
		Fleet:    workload.FleetSpec{NumServers: 50, TransitionTime: 1},
		Seeds:    seeds,
	}
}

func TestRunnerEndToEnd(t *testing.T) {
	sum, err := Run(context.Background(), paperConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Runs) != 5 {
		t.Fatalf("got %d runs, want 5", len(sum.Runs))
	}
	for _, o := range sum.Runs {
		ours, ffps := o.Results[0], o.Results[1]
		if ours.Energy <= 0 || ffps.Energy <= 0 {
			t.Fatalf("seed %d: non-positive energies %+v", o.Seed, o)
		}
		if ours.Allocator != "MinCost" || ffps.Allocator != "FFPS" {
			t.Fatalf("unexpected allocators %q, %q", ours.Allocator, ffps.Allocator)
		}
	}
	ours, ffps := sum.Allocators[0], sum.Allocators[1]
	if ours.Name != "mincost" || ffps.Name != "ffps" || ffps.Allocator != "FFPS" {
		t.Fatalf("default lineup summarised as %q, %q", ours.Name, ffps.Name)
	}
	// The paper's headline: positive mean reduction at moderate load.
	if sum.MeanReductionRatio <= 0 {
		t.Errorf("mean reduction ratio %.3f, want > 0", sum.MeanReductionRatio)
	}
	// Our utilisation should not be below FFPS's.
	if ours.Utilization.CPU < ffps.Utilization.CPU {
		t.Errorf("ours CPU util %.3f below FFPS %.3f", ours.Utilization.CPU, ffps.Utilization.CPU)
	}
	if ours.ServersUsed < 1 || ours.Stats.CandidatesEvaluated == 0 || ours.Stats.VMsPlaced != 5*100 {
		t.Errorf("ours summary %+v: want mean servers used and AllocStats summed over the seeds", ours)
	}
	if got := sum.ReductionRatios(); len(got) != 5 {
		t.Errorf("ReductionRatios length %d", len(got))
	}
}

// The seed pool is min(GOMAXPROCS, seeds) workers: drive it through
// GOMAXPROCS and require the same numbers from one worker and from four.
func TestRunnerDeterministicAcrossParallelism(t *testing.T) {
	cfg := paperConfig(4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	parallel, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Runs {
		a, b := serial.Runs[i], parallel.Runs[i]
		if a.Seed != b.Seed || math.Abs(a.Results[0].Energy-b.Results[0].Energy) > 1e-9 ||
			math.Abs(a.Results[1].Energy-b.Results[1].Energy) > 1e-9 {
			t.Fatalf("parallelism changed results: %+v vs %+v", a, b)
		}
	}
	if math.Abs(serial.MeanReductionRatio-parallel.MeanReductionRatio) > 1e-12 {
		t.Error("mean reduction differs across parallelism")
	}
}

func TestRunnerLineup(t *testing.T) {
	cfg := paperConfig(2)
	cfg.Allocators = []string{"bestfit", "randomfit", "mincost"}
	sum, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range sum.Runs {
		if len(o.Results) != 3 {
			t.Fatalf("seed %d: %d results, want 3", o.Seed, len(o.Results))
		}
		best, random := o.Results[0], o.Results[1]
		if best.Allocator != "BestFit/cpu" || random.Allocator != "RandomFit" {
			t.Fatalf("allocators = %q, %q", best.Allocator, random.Allocator)
		}
		// The ratio is lineup[0] against lineup[1].
		if want := (random.Energy - best.Energy) / random.Energy; o.ReductionRatio != want {
			t.Errorf("seed %d: ratio %g, want %g", o.Seed, o.ReductionRatio, want)
		}
	}
	if got := sum.Allocators[2]; got.Name != "mincost" || got.Allocator != "MinCost" {
		t.Errorf("Allocators[2] = %+v", got)
	}
	cfg.Allocators = []string{"mincost", "nope"}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Error("want error for a name the registry does not have")
	}
}

func TestRunnerNoSeeds(t *testing.T) {
	cfg := paperConfig(1)
	cfg.Seeds = 0
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Error("want error for empty seed list")
	}
}

func TestRunnerPropagatesGenerationError(t *testing.T) {
	cfg := paperConfig(2)
	cfg.Workload.MeanLength = 0
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Error("want error for invalid workload spec")
	}
}

func TestRunnerContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := paperConfig(8)
	if _, err := Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunnerSkipInfeasible(t *testing.T) {
	// A workload far beyond fleet capacity: every seed is infeasible.
	cfg := Config{
		Workload:       workload.Spec{NumVMs: 200, MeanInterArrival: 0.1, MeanLength: 500},
		Fleet:          workload.FleetSpec{NumServers: 2, TransitionTime: 1},
		Seeds:          3,
		SkipInfeasible: true,
	}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("want error when all seeds are infeasible")
	}
	// Without the flag, an infeasible seed fails the campaign.
	cfg.SkipInfeasible = false
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("want error without SkipInfeasible")
	}
	// A feasible campaign reports zero skips.
	sum, err := Run(context.Background(), paperConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Skipped != 0 {
		t.Errorf("Skipped = %d, want 0", sum.Skipped)
	}
}
