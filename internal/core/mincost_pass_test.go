package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vmalloc/internal/energy"
	"vmalloc/internal/model"
	"vmalloc/internal/workload"
)

// refMinCostRule is MinCost's rule as it stood before the hoisted pass:
// Fits (or its CPU half) and IncrementalCost (or RunCost) per candidate,
// reduced by Scan.ArgMin. It is the reference the pass is held to, and
// also returns the winner's cost, the float64 ties break on.
func refMinCostRule(s *Scan, v model.VM, cfg Config) (int, float64, error) {
	fleet := s.Fleet
	eval := func(i int) (float64, bool) {
		if cfg.MemoryCheck {
			if !fleet.Fits(i, v) {
				return 0, false
			}
		} else if cpu, _ := fleet.usage(i, v.Start); cpu+v.Demand.CPU > fleet.rows[i].capCPU {
			return 0, false
		}
		if cfg.TransitionAware {
			return fleet.State(i).IncrementalCost(v), true
		}
		return energy.RunCost(fleet.Servers[i], v), true
	}
	i, err := s.ArgMin(eval)
	if err != nil || i < 0 {
		return i, 0, err
	}
	cost, _ := eval(i)
	return i, cost, nil
}

// newTestScan is what Run builds for a rule: a fresh fleet and an empty
// statistics record.
func newTestScan(inst model.Instance) *Scan {
	return &Scan{Fleet: NewFleet(inst), ctx: context.Background(), stats: &AllocStats{}}
}

// fractionalInstance is a workload whose prices are not round: idle powers
// off the integers and wake-ups of a fraction of a minute, so α and every
// P_idle·gap product carry rounding, with gaps on both sides of α/P_idle.
func fractionalInstance(rng *rand.Rand, n, k int) model.Instance {
	inst := sparseInstance(rng, n, k)
	for i := range inst.Servers {
		s := &inst.Servers[i]
		s.PIdle *= 1 + 0.037*float64(1+i%5)
		s.PPeak *= 1 + 0.011*float64(1+i%7)
		s.TransitionTime = []float64{0.3, 0.75, 1.3, 2.7, 4.1}[i%5]
	}
	return inst
}

// passInstances is the table TestMinCostPassMatchesRule walks: dense and
// sparse catalog workloads (Table I demands are not dyadic: 1.7, 3.75,
// 17.1, 34.2 GB) and fractional prices, several seeds each; and §IV-B
// draws on the Table II fleet at a tenth of the offline-mincost
// benchmark's shape, where most servers are twins of one of five types,
// many are never used, and a VM fits on few of the rest.
func passInstances() map[string]model.Instance {
	out := map[string]model.Instance{}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		out[fmt.Sprintf("dense/%d", seed)] = randomInstance(rng, 150, 24+int(seed)*3)
		out[fmt.Sprintf("sparse/%d", seed)] = sparseInstance(rng, 120, 12+int(seed)*2)
		out[fmt.Sprintf("fractional/%d", seed)] = fractionalInstance(rng, 120, 10+int(seed)*2)
	}
	for seed := int64(1); seed <= 3; seed++ {
		inst, err := workload.Generate(workload.Spec{NumVMs: 500, MeanInterArrival: 1, MeanLength: 60},
			workload.FleetSpec{NumServers: 50, TransitionTime: 1}, seed)
		if err != nil {
			panic(err)
		}
		out[fmt.Sprintf("ivb/%d", seed)] = inst
	}
	return out
}

// TestMinCostPassMatchesRule holds minCostPass, all three variants, to the
// closure rule it replaced, on 27 seeded instances: VM by VM the same server
// index, the same bits in the winner's cost, the same candidate and
// rejection counts; and MinCost.Allocate, which reaches the pass through
// Run, to the same placement. The rule reads a fleet of its own that is
// never advanced, so most of its probes are the claims summed afresh, as
// every probe was before the rows.
func TestMinCostPassMatchesRule(t *testing.T) {
	variants := map[string][]Option{
		"full":          nil,
		"no-transition": {WithoutTransitionAwareness()},
		"no-memory":     {WithoutMemoryCheck()},
	}
	for instName, inst := range passInstances() {
		for varName, opts := range variants {
			t.Run(instName+"/"+varName, func(t *testing.T) {
				cfg := NewConfig(opts...)
				ref, pass := newTestScan(inst), newTestScan(inst)
				wantPlacement := map[int]int{}
				var wantUnplaceable *model.VM
				for _, v := range SortVMsByStart(inst) {
					want, wantCost, err := refMinCostRule(ref, v, cfg)
					if err != nil {
						t.Fatal(err)
					}
					pass.Fleet.advance(v.Start)
					got, gotCost, err := pass.minCostPass(v, cfg.MemoryCheck, cfg.TransitionAware)
					if err != nil {
						t.Fatal(err)
					}
					if got != want || math.Float64bits(gotCost) != math.Float64bits(wantCost) {
						t.Fatalf("vm %d: the pass picks server index %d at %v (%#x), the rule %d at %v (%#x)",
							v.ID, got, gotCost, math.Float64bits(gotCost), want, wantCost, math.Float64bits(wantCost))
					}
					if pass.stats.CandidatesEvaluated != ref.stats.CandidatesEvaluated ||
						pass.stats.FeasibilityRejections != ref.stats.FeasibilityRejections {
						t.Fatalf("vm %d: the pass has counted %+v, the rule %+v", v.ID, *pass.stats, *ref.stats)
					}
					if want < 0 {
						wantUnplaceable = &v
						break
					}
					if math.IsNaN(wantCost) || wantCost < 0 {
						t.Fatalf("vm %d: reference cost %g", v.ID, wantCost)
					}
					ref.Fleet.Commit(want, v)
					pass.Fleet.Commit(got, v)
					wantPlacement[v.ID] = inst.Servers[want].ID
				}

				res, err := NewMinCost(opts...).Allocate(context.Background(), inst)
				var unplaceable *UnplaceableError
				if errors.As(err, &unplaceable) {
					if wantUnplaceable == nil || wantUnplaceable.ID != unplaceable.VM.ID {
						t.Fatalf("Allocate: %v; the rule stops at %v", err, wantUnplaceable)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if wantUnplaceable != nil {
					t.Fatalf("Allocate placed every VM; the rule fits vm %d nowhere", wantUnplaceable.ID)
				}
				for _, v := range inst.VMs {
					if got, want := res.Placement[v.ID], wantPlacement[v.ID]; got != want {
						t.Errorf("vm %d on server %d, the rule says %d", v.ID, got, want)
					}
				}
				if got, want := res.Stats.CandidatesEvaluated, ref.stats.CandidatesEvaluated; got != want {
					t.Errorf("CandidatesEvaluated = %d, the rule examined %d", got, want)
				}
				if got, want := res.Stats.FeasibilityRejections, ref.stats.FeasibilityRejections; got != want {
					t.Errorf("FeasibilityRejections = %d, the rule refused %d", got, want)
				}
			})
		}
	}
}

// TestMinCostPassAllocFree: a pass over a fleet mid-run, multi-segment
// servers included, allocates nothing.
func TestMinCostPassAllocFree(t *testing.T) {
	inst := sparseInstance(rand.New(rand.NewSource(3)), 120, 16)
	s := newTestScan(inst)
	vms := SortVMsByStart(inst)
	for _, v := range vms[:80] {
		s.Fleet.advance(v.Start)
		i, _, err := s.minCostPass(v, true, true)
		if err != nil || i < 0 {
			t.Fatalf("vm %d: server index %d, err %v", v.ID, i, err)
		}
		s.Fleet.Commit(i, v)
	}
	next := vms[80]
	s.Fleet.advance(next.Start)
	if allocs := testing.AllocsPerRun(100, func() { s.minCostPass(next, true, true) }); allocs != 0 { //nolint:errcheck // the context is never cancelled
		t.Errorf("%.1f allocations a pass, want 0", allocs)
	}
}

// TestMinCostPassCut pins the edges of what the pass may leave unprobed, on
// one class of five twins (16 CU, 32 GB) and one of three twins too small
// for the VM (2 CU). Four of the big twins hold 2, 12, 13 and 14 CU over
// minutes 1–100; the fifth is never used. A 4 CU VM inside that window
// fills the 12 CU row to capacity exactly, which is admitted and, its run
// cost alone, wins; the 13 CU row, one CU fuller, is refused, and so is
// the 14 CU row past it. The 2 CU row has no memory to spare: refused on
// memory alone, it comes before the row that wins. The small class's
// never-used representative is refused, and each of its twins counts.
func TestMinCostPassCut(t *testing.T) {
	big := func(id int) model.Server { return srv(id, 16, 32, 80, 160, 1) }
	small := func(id int) model.Server { return srv(id, 2, 32, 40, 80, 1) }
	servers := []model.Server{small(1), big(2), big(3), big(4), big(5), small(6), big(7), small(8)}
	resident := map[int]model.VM{1: vm(1, 1, 100, 13, 4), 2: vm(2, 1, 100, 12, 4), 3: vm(3, 1, 100, 14, 4), 4: vm(4, 1, 100, 2, 31)}
	asked := vm(5, 10, 20, 4, 2)
	inst := model.NewInstance(append([]model.VM{asked}, resident[1], resident[2], resident[3], resident[4]), servers)

	cfg := NewConfig()
	ref, pass := newTestScan(inst), newTestScan(inst)
	for i := 1; i <= 4; i++ {
		ref.Fleet.Commit(i, resident[i])
		pass.Fleet.Commit(i, resident[i])
	}
	want, wantCost, err := refMinCostRule(ref, asked, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pass.Fleet.advance(asked.Start)
	got, gotCost, err := pass.minCostPass(asked, cfg.MemoryCheck, cfg.TransitionAware)
	if err != nil {
		t.Fatal(err)
	}
	if want != 2 || got != want || math.Float64bits(gotCost) != math.Float64bits(wantCost) {
		t.Errorf("the pass picks server index %d at %v, the rule %d at %v; want index 2, filled to capacity exactly", got, gotCost, want, wantCost)
	}
	// Refused: the memory-full row, the 13 and 14 CU rows, three small twins.
	if got, want := *pass.stats, (AllocStats{CandidatesEvaluated: 8, FeasibilityRejections: 6, ScanWall: pass.stats.ScanWall}); got != want {
		t.Errorf("the pass counted %+v, want %+v", got, want)
	}
	if pass.stats.CandidatesEvaluated != ref.stats.CandidatesEvaluated || pass.stats.FeasibilityRejections != ref.stats.FeasibilityRejections {
		t.Errorf("the pass counted %+v, the rule %+v", *pass.stats, *ref.stats)
	}
}
