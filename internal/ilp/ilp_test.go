package ilp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

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

func tinyInstance() model.Instance {
	return model.NewInstance(
		[]model.VM{
			vm(1, 1, 4, 2, 2),
			vm(2, 2, 6, 3, 3),
			vm(3, 5, 9, 2, 2),
			vm(4, 8, 12, 4, 4),
		},
		[]model.Server{
			srv(1, 6, 8, 100, 200, 1),
			srv(2, 8, 10, 80, 160, 1),
			srv(3, 10, 12, 120, 260, 2),
		},
	)
}

func TestCheckPlacementAcceptsValid(t *testing.T) {
	inst := tinyInstance()
	res, err := core.NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPlacement(inst, res.Placement); err != nil {
		t.Errorf("valid placement rejected: %v", err)
	}
}

// TestCheckPlacementBytes bounds what CheckPlacement allocates on the
// offline-mincost shape (5,000 VMs on 500 servers, a 936-minute horizon)
// to 256 B a VM plus one horizon of sums: every server is summed into one
// reused buffer, and what is left is the ID sets and the per-server
// groups. With one horizon array per used server the call took 4.49 MB;
// now it takes ≈1.0 MB.
func TestCheckPlacementBytes(t *testing.T) {
	inst, err := workload.Generate(workload.Spec{NumVMs: 5000, MeanInterArrival: 0.1, MeanLength: 60},
		workload.FleetSpec{NumServers: 500, TransitionTime: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	for range 3 { // the least of three, against other goroutines' allocations
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := CheckPlacement(inst, res.Placement)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if bound := uint64(256*len(inst.VMs) + 16*(inst.Horizon+1)); least > bound {
		t.Errorf("CheckPlacement allocates %d B, want at most %d", least, bound)
	}
}

func TestCheckPlacementRejects(t *testing.T) {
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 5, 4, 4), vm(2, 3, 8, 4, 4)},
		[]model.Server{srv(1, 6, 8, 100, 200, 1), srv(2, 6, 8, 100, 200, 1)},
	)
	t.Run("unplaced", func(t *testing.T) {
		if err := CheckPlacement(inst, map[int]int{1: 1}); err == nil {
			t.Error("want error")
		}
	})
	t.Run("unknown server", func(t *testing.T) {
		if err := CheckPlacement(inst, map[int]int{1: 1, 2: 9}); err == nil {
			t.Error("want error")
		}
	})
	t.Run("cpu overload", func(t *testing.T) {
		// Both on server 1: 8 CPU > 6 during overlap [3,5].
		if err := CheckPlacement(inst, map[int]int{1: 1, 2: 1}); err == nil {
			t.Error("want overload error")
		}
	})
	t.Run("memory overload", func(t *testing.T) {
		inst := model.NewInstance(
			[]model.VM{vm(1, 1, 5, 1, 5), vm(2, 3, 8, 1, 5)},
			[]model.Server{srv(1, 6, 8, 100, 200, 1), srv(2, 6, 8, 100, 200, 1)},
		)
		if err := CheckPlacement(inst, map[int]int{1: 1, 2: 1}); err == nil {
			t.Error("want overload error")
		}
	})
	t.Run("sequential sharing is fine", func(t *testing.T) {
		inst := model.NewInstance(
			[]model.VM{vm(1, 1, 3, 4, 4), vm(2, 4, 8, 4, 4)},
			[]model.Server{srv(1, 6, 8, 100, 200, 1)},
		)
		if err := CheckPlacement(inst, map[int]int{1: 1, 2: 1}); err != nil {
			t.Errorf("sequential placement rejected: %v", err)
		}
	})
}

// TestFitsMatchesCheckServer: the allocation-free window check answers what
// the per-minute checker answers for the set with v added, on Table I/II
// demands and capacities (1.7, 3.75, 7.5 GB are not dyadic), for every
// placed set the checker accepts.
func TestFitsMatchesCheckServer(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	vmTypes, srvTypes := model.VMTypeCatalog(), model.ServerTypeCatalog()
	accepted, rejected := 0, 0
	for trial := 0; trial < 200; trial++ {
		s := srvTypes[rng.Intn(len(srvTypes))].NewServer(1, 1)
		var placed []model.VM
		for j := 1; j <= 40; j++ {
			start := 1 + rng.Intn(30)
			v := model.VM{ID: j, Demand: vmTypes[rng.Intn(len(vmTypes))].Resources(), Start: start, End: start + rng.Intn(15)}
			want := CheckServer(s, append(placed, v)) == nil
			if got := Fits(s, placed, v); got != want {
				t.Fatalf("trial %d: Fits(%v, %d placed, %+v) = %v, CheckServer says %v", trial, s.Capacity, len(placed), v, got, want)
			}
			if want {
				placed = append(placed, v)
				accepted++
			} else {
				rejected++
			}
		}
	}
	if accepted < 1000 || rejected < 1000 {
		t.Errorf("lopsided draw: %d accepted, %d rejected", accepted, rejected)
	}
}

func TestBranchAndBoundOptimalOnTiny(t *testing.T) {
	inst := tinyInstance()
	placement, cost, stats, err := (&BranchAndBound{}).Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes == 0 {
		t.Error("no nodes visited")
	}
	if err := CheckPlacement(inst, placement); err != nil {
		t.Fatalf("optimal placement infeasible: %v", err)
	}
	// Cost must equal the evaluator's account of the placement.
	got, err := energy.EvaluateObjective(inst, placement)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Total()-cost) > 1e-6 {
		t.Errorf("cost %g != evaluator %g", cost, got.Total())
	}
	// The heuristic can never beat the optimum.
	heur, err := core.NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if heur.Energy.Total() < cost-1e-6 {
		t.Errorf("heuristic %g beats 'optimal' %g", heur.Energy.Total(), cost)
	}
}

func TestBranchAndBoundMatchesBruteForce(t *testing.T) {
	// Exhaustively enumerate all assignments on random 4-VM/3-server
	// instances and compare optima.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		inst := randomTiny(rng, 4, 3)
		want, found := bruteForce(inst)
		placement, got, _, err := (&BranchAndBound{}).Solve(context.Background(), inst)
		if !found {
			if err == nil {
				t.Fatalf("trial %d: brute force infeasible but B&B returned %v", trial, placement)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v (brute force found %g)", trial, err, want)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("trial %d: B&B %g != brute force %g", trial, got, want)
		}
	}
}

func TestBranchAndBoundNodeLimit(t *testing.T) {
	inst := tinyInstance()
	_, _, _, err := (&BranchAndBound{MaxNodes: 2}).Solve(context.Background(), inst)
	if !errors.Is(err, ErrNodeLimit) {
		t.Errorf("err = %v, want ErrNodeLimit", err)
	}
}

func TestBranchAndBoundContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := (&BranchAndBound{}).Solve(ctx, tinyInstance()); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestBranchAndBoundInfeasible(t *testing.T) {
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 5, 100, 1)},
		[]model.Server{srv(1, 6, 8, 100, 200, 1)},
	)
	if _, _, _, err := (&BranchAndBound{}).Solve(context.Background(), inst); err == nil {
		t.Error("want error for unplaceable VM")
	}
}

func TestLPRelaxationLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		inst := randomTiny(rng, 4, 3)
		m, err := BuildModel(inst)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := m.LowerBound()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		_, opt, _, err := (&BranchAndBound{}).Solve(context.Background(), inst)
		if err != nil {
			continue // infeasible draws are fine for this property
		}
		if bound > opt+1e-6 {
			t.Fatalf("trial %d: LP bound %g exceeds ILP optimum %g", trial, bound, opt)
		}
		if bound <= 0 {
			t.Fatalf("trial %d: LP bound %g not positive", trial, bound)
		}
	}
}

func TestModelIndexing(t *testing.T) {
	inst := tinyInstance()
	m, err := BuildModel(inst)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := range inst.Servers {
		for j := range inst.VMs {
			idx := m.XIndex(i, j)
			if idx < 0 || idx >= m.NumX || seen[idx] {
				t.Fatalf("bad x index %d", idx)
			}
			seen[idx] = true
		}
	}
	for i := range inst.Servers {
		for k := range m.Segments {
			y, z := m.YIndex(i, k), m.ZIndex(i, k)
			if y < m.NumX || y >= m.NumX+m.NumY || seen[y] {
				t.Fatalf("bad y index %d", y)
			}
			if z < m.NumX+m.NumY || z >= m.NumVars() || seen[z] {
				t.Fatalf("bad z index %d", z)
			}
			seen[y], seen[z] = true, true
		}
	}
	if len(seen) != m.NumVars() {
		t.Fatalf("indexing covered %d of %d variables", len(seen), m.NumVars())
	}
	if _, err := BuildModel(model.Instance{}); err == nil {
		t.Error("want error for invalid instance")
	}
}

// bruteForce enumerates every assignment (servers^VMs).
func bruteForce(inst model.Instance) (float64, bool) {
	n := len(inst.Servers)
	m := len(inst.VMs)
	asg := make([]int, m)
	best := math.Inf(1)
	found := false
	for {
		placement := make(map[int]int, m)
		for j, i := range asg {
			placement[inst.VMs[j].ID] = inst.Servers[i].ID
		}
		if CheckPlacement(inst, placement) == nil {
			b, err := energy.EvaluateObjective(inst, placement)
			if err == nil && b.Total() < best {
				best = b.Total()
				found = true
			}
		}
		// Increment the mixed-radix counter.
		k := 0
		for ; k < m; k++ {
			asg[k]++
			if asg[k] < n {
				break
			}
			asg[k] = 0
		}
		if k == m {
			break
		}
	}
	return best, found
}

func randomTiny(rng *rand.Rand, nVM, nSrv int) model.Instance {
	vms := make([]model.VM, nVM)
	for j := range vms {
		start := 1 + rng.Intn(8)
		vms[j] = vm(j+1, start, start+1+rng.Intn(6),
			1+float64(rng.Intn(4)), 1+float64(rng.Intn(4)))
	}
	servers := make([]model.Server, nSrv)
	for i := range servers {
		servers[i] = srv(i+1,
			4+float64(rng.Intn(5)), 4+float64(rng.Intn(5)),
			80+float64(rng.Intn(40)), 180+float64(rng.Intn(80)),
			float64(rng.Intn(3)))
	}
	return model.NewInstance(vms, servers)
}

func TestBranchAndBoundSymmetryBreaking(t *testing.T) {
	// Four identical servers: the symmetric subtrees must be pruned
	// without changing the optimum (cross-checked against brute force).
	s := srv(0, 8, 10, 90, 190, 1)
	servers := make([]model.Server, 4)
	for i := range servers {
		s.ID = i + 1
		servers[i] = s
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		vms := make([]model.VM, 5)
		for j := range vms {
			start := 1 + rng.Intn(10)
			vms[j] = vm(j+1, start, start+1+rng.Intn(8), 1+float64(rng.Intn(5)), 1+float64(rng.Intn(5)))
		}
		inst := model.NewInstance(vms, servers)
		want, found := bruteForce(inst)
		_, got, stats, err := (&BranchAndBound{}).Solve(context.Background(), inst)
		if !found {
			if err == nil {
				t.Fatalf("trial %d: brute force infeasible, B&B succeeded", trial)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("trial %d: symmetry-broken B&B %g != brute force %g", trial, got, want)
		}
		if stats.Pruned == 0 {
			t.Errorf("trial %d: no symmetric branches pruned on an identical fleet", trial)
		}
	}
}
