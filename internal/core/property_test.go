package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vmalloc/internal/energy"
	"vmalloc/internal/model"
)

// quickInstance draws a modest feasible-ish instance from a seed.
func quickInstance(seed int64) model.Instance {
	rng := rand.New(rand.NewSource(seed))
	types := model.VMTypesByClass(model.ClassStandard)
	srvTypes := model.ServerTypeCatalog()
	n := 8 + rng.Intn(12)
	vms := make([]model.VM, 2+rng.Intn(30))
	for j := range vms {
		vt := types[rng.Intn(len(types))]
		start := 1 + rng.Intn(60)
		vms[j] = model.VM{
			ID: j + 1, Type: vt.Name, Demand: vt.Resources(),
			Start: start, End: start + rng.Intn(40),
		}
	}
	servers := make([]model.Server, n)
	for i := range servers {
		servers[i] = srvTypes[rng.Intn(len(srvTypes))].NewServer(i+1, float64(rng.Intn(3)))
	}
	return model.NewInstance(vms, servers)
}

// Property: every placement the heuristic emits is complete, references
// real servers, and its reported energy equals the independent evaluator's.
func TestMinCostPlacementProperties(t *testing.T) {
	f := func(seed int64) bool {
		inst := quickInstance(seed)
		res, err := NewMinCost().Allocate(context.Background(), inst)
		if err != nil {
			return true // infeasible draw: nothing to check
		}
		if len(res.Placement) != len(inst.VMs) {
			return false
		}
		for id, sid := range res.Placement {
			if _, ok := inst.VMByID(id); !ok {
				return false
			}
			if _, ok := inst.ServerByID(sid); !ok {
				return false
			}
		}
		want, err := energy.EvaluateObjective(inst, res.Placement)
		if err != nil {
			return false
		}
		diff := res.Energy.Total() - want.Total()
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the heuristic's energy never exceeds the per-VM-worst-case
// upper bound Σ_j max_i(W_ij + α_i + PIdle_i·dur_j) — each VM can always
// be charged at most one activation, its own idle window and its run cost.
func TestMinCostUpperBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		inst := quickInstance(seed)
		res, err := NewMinCost().Allocate(context.Background(), inst)
		if err != nil {
			return true
		}
		var bound float64
		for _, v := range inst.VMs {
			worst := 0.0
			for _, s := range inst.Servers {
				if !v.Demand.Fits(s.Capacity) {
					continue
				}
				c := energy.RunCost(s, v) + s.TransitionCost() + s.PIdle*float64(v.Duration())
				if c > worst {
					worst = c
				}
			}
			bound += worst
		}
		return res.Energy.Total() <= bound+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: adding servers to the fleet never makes the heuristic's
// placement worse (more options can only help a greedy min).
//
// NOTE: this is NOT a theorem for greedy algorithms in general — an extra
// server can lure an early VM away and degrade later choices — but it is
// overwhelmingly true at this scale; tolerate rare small regressions.
func TestMinCostMoreServersRarelyHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	worse := 0
	trials := 0
	for trials < 20 {
		inst := quickInstance(rng.Int63())
		small := inst
		res1, err1 := NewMinCost().Allocate(context.Background(), small)
		// Double the fleet.
		bigServers := make([]model.Server, 0, 2*len(inst.Servers))
		bigServers = append(bigServers, inst.Servers...)
		for i, s := range inst.Servers {
			s.ID = 1000 + i
			bigServers = append(bigServers, s)
		}
		big := model.NewInstance(inst.VMs, bigServers)
		res2, err2 := NewMinCost().Allocate(context.Background(), big)
		if err1 != nil || err2 != nil {
			continue
		}
		trials++
		if res2.Energy.Total() > res1.Energy.Total()*1.02+1e-6 {
			worse++
		}
	}
	if worse > 2 {
		t.Errorf("doubling the fleet hurt noticeably in %d/20 trials", worse)
	}
}

// Property: scaling every power parameter by a constant scales the total
// energy by the same constant (the objective is homogeneous of degree 1
// in power).
func TestEnergyHomogeneity(t *testing.T) {
	f := func(seed int64) bool {
		inst := quickInstance(seed)
		res, err := NewMinCost().Allocate(context.Background(), inst)
		if err != nil {
			return true
		}
		const k = 2.5
		scaled := inst
		scaled.Servers = make([]model.Server, len(inst.Servers))
		copy(scaled.Servers, inst.Servers)
		for i := range scaled.Servers {
			scaled.Servers[i].PIdle *= k
			scaled.Servers[i].PPeak *= k
		}
		want, err := energy.EvaluateObjective(scaled, res.Placement)
		if err != nil {
			return false
		}
		got := res.Energy.Total() * k
		diff := want.Total() - got
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1e-6*(1+got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// fleetOracle holds a Fleet next to each server's committed VMs, whose
// per-minute sums (model.Usage) are the straightforward answer to Eq. 9–10.
// Demands are dyadic (multiples of 0.25), so every sum is exact whatever
// its order and the comparison can be ==.
type fleetOracle struct {
	fleet *Fleet
	vms   [][]model.VM
	use   []model.Resources
}

var oracleServers = []model.Server{srv(1, 16, 32, 80, 160, 1), srv(2, 24, 24, 90, 200, 1), srv(3, 8, 64, 60, 120, 1)}

func newFleetOracle(horizon int) *fleetOracle {
	return &fleetOracle{
		fleet: NewFleet(model.Instance{Servers: oracleServers, Horizon: horizon}),
		vms:   make([][]model.VM, len(oracleServers)),
	}
}

// commit places v on server index i if the fleet says it fits. With advance
// the fleet is first moved to v's start, as Run moves it, so the rows are
// fresh; without, the probes that follow find some of them stale.
func (o *fleetOracle) commit(i int, v model.VM, advance bool) {
	if advance {
		o.fleet.advance(v.Start)
	}
	if o.fleet.Fits(i, v) {
		o.fleet.Commit(i, v)
		o.vms[i] = append(o.vms[i], v)
	}
}

// probe checks the fleet's three answers for p's window, on every server,
// against the window maxima of the committed VMs' per-minute usage.
func (o *fleetOracle) probe(t *testing.T, p model.VM) {
	t.Helper()
	for i, s := range oracleServers {
		o.use = model.Usage(o.use, o.vms[i])
		var maxCPU, maxMem float64
		for m := p.Start; m <= min(p.End, len(o.use)-1); m++ {
			maxCPU, maxMem = max(maxCPU, o.use[m].CPU), max(maxMem, o.use[m].Mem)
		}
		want := maxCPU+p.Demand.CPU <= s.Capacity.CPU && maxMem+p.Demand.Mem <= s.Capacity.Mem
		if got := o.fleet.Fits(i, p); got != want {
			t.Fatalf("Fits(%d, %+v) = %v, oracle %v", i, p, got, want)
		}
		if got, want := o.fleet.SpareCPU(i, p.Start), s.Capacity.CPU-maxCPU; got != want {
			t.Fatalf("SpareCPU(%d, %d) = %g, oracle %g over [%d,%d]", i, p.Start, got, want, p.Start, p.End)
		}
		if got, want := o.fleet.SpareMem(i, p.Start), s.Capacity.Mem-maxMem; got != want {
			t.Fatalf("SpareMem(%d, %d) = %g, oracle %g over [%d,%d]", i, p.Start, got, want, p.Start, p.End)
		}
	}
}

// probeBoundaries probes, with p's demands, where each row's kept sum stops
// being the answer: the last minute it covers (the earliest end among the
// claims it counted) and the minute after.
func (o *fleetOracle) probeBoundaries(t *testing.T, p model.VM, horizon int) {
	t.Helper()
	for i := range o.fleet.rows {
		for _, start := range []int{o.fleet.rows[i].validTo, o.fleet.rows[i].validTo + 1} {
			if o.fleet.frontier <= start && start <= horizon {
				p.Start, p.End = start, min(start+3, horizon)
				o.probe(t, p)
			}
		}
	}
}

// Property: the fleet's claim lists answer exactly as per-minute usage
// arrays do. Commits arrive in start order, as Run makes them; after each,
// random windows starting at or after the frontier are probed on every
// server — minutes later than the frontier with no commit in between, and
// minutes a commit has since evicted claims before — and so is each row's
// validity boundary. Every other commit is preceded by Run's advance.
func TestFleetMatchesSliceOracle(t *testing.T) {
	const horizon = 160
	dyadic := func(rng *rand.Rand) float64 { return 0.25 * float64(1+rng.Intn(24)) }
	for seed := int64(1); seed <= 25; seed++ {
		t.Logf("seed %d", seed)
		rng := rand.New(rand.NewSource(seed))
		o := newFleetOracle(horizon)
		frontier := 1
		for id := 1; id <= 80 && frontier < horizon-40; id++ {
			frontier += rng.Intn(4)
			o.commit(rng.Intn(len(oracleServers)), vm(id, frontier, frontier+rng.Intn(40), dyadic(rng), dyadic(rng)), id%2 == 0)
			o.probeBoundaries(t, vm(0, 0, 0, dyadic(rng), dyadic(rng)), horizon)
			for probe := 0; probe < 6; probe++ {
				start := frontier + rng.Intn(horizon-frontier)
				o.probe(t, vm(0, start, start+rng.Intn(horizon-start+1), dyadic(rng), dyadic(rng)))
			}
		}
	}
}

// FuzzFleetOracle drives the same comparison from arbitrary bytes: five a
// step — start advance, length, server, CPU and memory in quarters — each
// step a commit, if it fits (after an advance when the first byte is odd),
// and probes of a window at or after it and of the rows' boundaries.
func FuzzFleetOracle(f *testing.F) {
	f.Add([]byte{0, 10, 0, 8, 8, 1, 5, 0, 56, 120, 0, 0, 0, 1, 1, 2, 30, 1, 95, 95})
	f.Add([]byte{3, 200, 2, 31, 255, 0, 0, 2, 1, 1, 7, 40, 5, 12, 64, 0, 1, 2, 32, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		const horizon = 256
		o := newFleetOracle(horizon)
		start := 1
		for ; len(data) >= 5; data = data[5:] {
			start += int(data[0] % 8)
			if start > horizon {
				return
			}
			end := min(start+int(data[1]), horizon)
			v := vm(0, start, end, 0.25*float64(1+data[3]%96), 0.25*float64(1+data[4]))
			o.commit(int(data[2])%len(oracleServers), v, data[0]%2 == 1)
			o.probeBoundaries(t, v, horizon)
			// The probe reuses the step's demands on a window that starts
			// later or ends sooner, and is asked of all three servers.
			v.Start = min(start+int(data[2]>>4), end)
			v.End = max(v.Start, end-int(data[1]>>5))
			o.probe(t, v)
		}
	})
}

// TestFleetRowsMatchClaimSums is the oracle's twin for catalog demands
// (1.7, 3.75, 17.1 GB: sums whose bits depend on their order, so no array
// can referee): wherever a row answers, it answers with the very float64s
// the claims give summed afresh, newest first, at that minute — at the
// frontier, at later minutes, at the row's boundary and past it, with and
// without Run's advance, and after commits have evicted claims.
func TestFleetRowsMatchClaimSums(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		inst := randomInstance(rand.New(rand.NewSource(seed)), 200, 9)
		rng := rand.New(rand.NewSource(seed))
		f := NewFleet(inst)
		for k, v := range SortVMsByStart(inst) {
			if k%3 != 0 {
				f.advance(v.Start)
			}
			minutes := []int{v.Start, v.Start + 1 + rng.Intn(20)}
			for i := range f.rows {
				if to := f.rows[i].validTo; to != math.MaxInt && to >= v.Start {
					minutes = append(minutes, to, to+1)
				}
			}
			for i := range f.rows {
				for _, at := range minutes {
					cpu, mem := f.usage(i, at)
					wantCPU, wantMem, _ := f.sum(i, at)
					if cpu != wantCPU || mem != wantMem {
						t.Fatalf("seed %d, before vm %d: usage(%d, %d) = %v CU %v GB, the claims sum to %v CU %v GB",
							seed, v.ID, i, at, cpu, mem, wantCPU, wantMem)
					}
				}
			}
			for n, i := 0, rng.Intn(len(f.rows)); n < len(f.rows); n, i = n+1, (i+1)%len(f.rows) {
				if f.Fits(i, v) {
					f.Commit(i, v)
					break
				}
			}
		}
	}
}
