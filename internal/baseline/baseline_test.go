package baseline

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/energy"
	"vmalloc/internal/ilp"
	"vmalloc/internal/model"
	"vmalloc/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/placements.golden from this build's placements")

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

func smallInstance() model.Instance {
	return model.NewInstance(
		[]model.VM{
			vm(1, 1, 10, 2, 2),
			vm(2, 3, 12, 4, 4),
			vm(3, 5, 20, 2, 2),
			vm(4, 15, 25, 6, 6),
		},
		[]model.Server{
			srv(1, 10, 16, 100, 200, 1),
			srv(2, 10, 16, 80, 160, 1),
			srv(3, 16, 32, 140, 300, 1),
		},
	)
}

func catalogInstance(rng *rand.Rand, n, k int) model.Instance {
	vmTypes := model.VMTypeCatalog()
	srvTypes := model.ServerTypeCatalog()
	vms := make([]model.VM, n)
	for i := range vms {
		vt := vmTypes[rng.Intn(len(vmTypes))]
		start := 1 + rng.Intn(100)
		vms[i] = model.VM{ID: i + 1, Type: vt.Name, Demand: vt.Resources(), Start: start, End: start + rng.Intn(12)}
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

// TestRegistry is the one table over the allocator registry: every name
// constructs, places a seeded 40-VM instance, and the placement passes the
// ILP's constraint check and the exact evaluator.
func TestRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inst := catalogInstance(rng, 40, 10)
	names := Names()
	if len(names) != 11 || !slices.IsSorted(names) {
		t.Errorf("Names() = %v, want 11 sorted names", names)
	}
	for _, name := range append(names, "firstfit") {
		t.Run(name, func(t *testing.T) {
			mk, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := mk(core.WithSeed(1)).Allocate(context.Background(), inst)
			if err != nil {
				t.Fatalf("Allocate: %v", err)
			}
			if err := ilp.CheckPlacement(inst, res.Placement); err != nil {
				t.Fatal(err)
			}
			want, err := energy.EvaluateObjective(inst, res.Placement)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Energy.Total()-want.Total()) > 1e-9 {
				t.Errorf("energy %g != evaluator %g", res.Energy.Total(), want.Total())
			}
			if res.ServersUsed < 1 || res.ServersUsed > len(inst.Servers) {
				t.Errorf("ServersUsed = %d", res.ServersUsed)
			}
		})
	}
	if a, _ := Lookup("firstfit"); a().Name() != "FirstFit/efficiency" {
		t.Errorf("firstfit resolves to %s", a().Name())
	}
	if _, err := Lookup("nope"); err == nil || !strings.Contains(err.Error(), strings.Join(names, ", ")) {
		t.Errorf("unknown name: err = %v, want the list of names", err)
	}
	t.Run("placements.golden", testPlacementsGolden)
}

// testPlacementsGolden pins "the same placements": every registry name on
// the ablation's shapes (100 VMs on 50 servers at inter-arrival 1, 4 and
// 10, seeds 1–20) and on 1,000 VMs on 250 servers (seeds 1–3) must place
// every VM where testdata/placements.golden says — one SHA-256 of the
// sorted (VM → server) list per allocator, shape and seed, so a placement
// that moves names all three. The file was generated while the fleet
// still answered from segment trees, and 684 of its 693 lines are those.
// Nine moved, once, when the trees left (issue 20): firstfit-capacity
// 100/50 inter-arrival 1 seed 16 and inter-arrival 4 seeds 12, 14, 20;
// minbusytime 100/50 inter-arrival 1 seeds 12, 18, 19 and 1000/250
// inter-arrival 0.5 seeds 1, 3 — none on a seed a committed table
// averages. Each passes through an exact fill (resident + asked = capacity
// in real arithmetic) that the trees answered by the rounding their node
// layout left and core.Fleet answers by summing the claims newest first —
// see core.TestFleetExactFill. -update rewrites the file, only when a
// placement is meant to change.
func testPlacementsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every allocator on 63 instances")
	}
	var got strings.Builder
	for _, shape := range []struct {
		vms, servers int
		interArr     float64
		seeds        int64
	}{{100, 50, 1, 20}, {100, 50, 4, 20}, {100, 50, 10, 20}, {1000, 250, 0.5, 3}} {
		for seed := int64(1); seed <= shape.seeds; seed++ {
			inst, err := workload.Generate(
				workload.Spec{NumVMs: shape.vms, MeanInterArrival: shape.interArr, MeanLength: 50},
				workload.FleetSpec{NumServers: shape.servers, TransitionTime: 1}, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range Names() {
				mk, _ := Lookup(name)
				var outcome string
				res, err := mk(core.WithSeed(seed)).Allocate(context.Background(), inst)
				var unplaceable *core.UnplaceableError
				switch {
				case errors.As(err, &unplaceable):
					outcome = fmt.Sprintf("unplaceable vm %d", unplaceable.VM.ID)
				case err != nil:
					t.Fatalf("%s: %v", name, err)
				default:
					h := sha256.New()
					for _, v := range inst.VMs { // generated in ID order
						fmt.Fprintf(h, "%d %d\n", v.ID, res.Placement[v.ID])
					}
					outcome = fmt.Sprintf("%x", h.Sum(nil))
				}
				fmt.Fprintf(&got, "%s %d/%d inter-arrival %g seed %d: %s\n",
					name, shape.vms, shape.servers, shape.interArr, seed, outcome)
			}
		}
	}
	const golden = "testdata/placements.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d placements, %s has %d", len(gotLines), golden, len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("placement moved:\n got: %s\nwant: %s", gotLines[i], wantLines[i])
		}
	}
}

func TestFFPSSeedDeterminismAndVariation(t *testing.T) {
	inst := smallInstance()
	a1, err := NewFFPS(core.WithSeed(7)).Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewFFPS(core.WithSeed(7)).Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	for id := range a1.Placement {
		if a1.Placement[id] != a2.Placement[id] {
			t.Fatalf("same seed, different placements for vm %d", id)
		}
	}
	// Across many seeds at least two distinct placements must appear
	// (servers are shuffled per run).
	seen := map[int]bool{}
	for seed := int64(0); seed < 20; seed++ {
		res, err := NewFFPS(core.WithSeed(seed)).Allocate(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		seen[res.Placement[1]] = true
	}
	if len(seen) < 2 {
		t.Error("FFPS shuffle appears inert: vm 1 always on the same server across 20 seeds")
	}
}

func TestFirstFitSortedOrderings(t *testing.T) {
	// Efficiency ordering must put the single VM on the most
	// energy-proportional server (lowest idle power per CPU): server 2.
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 10, 1, 1)},
		[]model.Server{
			srv(1, 10, 16, 150, 300, 1), // 15 W/CU idle
			srv(2, 10, 16, 80, 160, 1),  // 8 W/CU idle
			srv(3, 16, 32, 200, 400, 1), // 12.5 W/CU idle
		},
	)
	res, err := NewFirstFitSorted(ByEfficiency).Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement[1] != 2 {
		t.Errorf("efficiency ordering placed vm on %d, want 2", res.Placement[1])
	}
	// Capacity ordering must put it on the biggest server: server 3.
	res, err = NewFirstFitSorted(ByCapacity).Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement[1] != 3 {
		t.Errorf("capacity ordering placed vm on %d, want 3", res.Placement[1])
	}
}

func TestBestFitPicksTightestServer(t *testing.T) {
	// VM of 6 CPU: server 2 (8 CU) is tighter than server 3 (16 CU).
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 10, 6, 6)},
		[]model.Server{
			srv(2, 8, 16, 100, 200, 1),
			srv(3, 16, 32, 140, 300, 1),
		},
	)
	res, err := NewBestFitCPU().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement[1] != 2 {
		t.Errorf("best fit placed vm on %d, want tight server 2", res.Placement[1])
	}
}

func TestMinCostBeatsFFPSOnAverage(t *testing.T) {
	// The paper's headline claim, in miniature: averaged over seeds, the
	// heuristic consumes no more energy than FFPS.
	rng := rand.New(rand.NewSource(21))
	var oursSum, ffpsSum float64
	for seed := int64(1); seed <= 8; seed++ {
		inst := catalogInstance(rng, 60, 30)
		ours, err := core.NewMinCost().Allocate(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		ffps, err := NewFFPS(core.WithSeed(seed)).Allocate(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		oursSum += ours.Energy.Total()
		ffpsSum += ffps.Energy.Total()
	}
	if oursSum > ffpsSum {
		t.Errorf("MinCost total %g exceeds FFPS total %g over 8 runs", oursSum, ffpsSum)
	}
	ratio := (ffpsSum - oursSum) / ffpsSum
	t.Logf("aggregate reduction ratio over 8 runs: %.1f%%", 100*ratio)
}

func TestUnplaceablePropagation(t *testing.T) {
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 5, 100, 100)},
		[]model.Server{srv(1, 10, 16, 80, 160, 1)},
	)
	for _, a := range []core.Allocator{
		NewFFPS(core.WithSeed(1)), NewFirstFitSorted(ByEfficiency), NewBestFitCPU(), NewRandomFit(core.WithSeed(1)),
	} {
		if _, err := a.Allocate(context.Background(), inst); err == nil {
			t.Errorf("%s: want UnplaceableError", a.Name())
		}
	}
}

func TestReductionRatio(t *testing.T) {
	ours := energy.Breakdown{Run: 80}
	base := energy.Breakdown{Run: 100}
	if got := ReductionRatio(ours, base); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("ReductionRatio = %g, want 0.2", got)
	}
	if got := ReductionRatio(ours, energy.Breakdown{}); got != 0 {
		t.Errorf("zero-base ReductionRatio = %g, want 0", got)
	}
}
