package energy

import (
	"math"
	"math/rand"
	"testing"

	"vmalloc/internal/model"
	"vmalloc/internal/timeline"
)

// testServer: 10 CU, 16 GB, 100 W idle, 200 W peak, 2 min transition
// (α = 400 Wmin, unit CPU power = 10 W/CU).
func testServer() model.Server {
	return model.Server{
		ID:             1,
		Capacity:       model.Resources{CPU: 10, Mem: 16},
		PIdle:          100,
		PPeak:          200,
		TransitionTime: 2,
	}
}

func vm(id, start, end int, cpu float64) model.VM {
	return model.VM{ID: id, Demand: model.Resources{CPU: cpu, Mem: 1}, Start: start, End: end}
}

func TestRunCost(t *testing.T) {
	s := testServer()
	// 2 CU for 5 minutes at 10 W/CU = 100 Wmin.
	if got := RunCost(s, vm(1, 1, 5, 2)); got != 100 {
		t.Errorf("RunCost = %g, want 100", got)
	}
	// One-minute VM.
	if got := RunCost(s, vm(2, 3, 3, 1)); got != 10 {
		t.Errorf("RunCost = %g, want 10", got)
	}
}

func TestSegmentCostEmpty(t *testing.T) {
	var busy timeline.SegmentSet
	if got := SegmentCost(testServer(), &busy); got != 0 {
		t.Errorf("empty SegmentCost = %g, want 0", got)
	}
}

func TestSegmentCostSingleSegment(t *testing.T) {
	s := testServer()
	var busy timeline.SegmentSet
	busy.Insert(timeline.Interval{Start: 5, End: 9})
	// α (initial switch-on) + 5 min idle power = 400 + 500.
	if got := SegmentCost(s, &busy); got != 900 {
		t.Errorf("SegmentCost = %g, want 900", got)
	}
}

func TestSegmentCostGapDecision(t *testing.T) {
	s := testServer() // α = 400, PIdle = 100 → break-even gap = 4 min
	tests := []struct {
		name string
		segs []timeline.Interval
		want float64
	}{
		{
			// Gap of 3: staying active (300) beats cycling (400).
			"short gap stays active",
			[]timeline.Interval{{Start: 1, End: 2}, {Start: 6, End: 7}},
			400 + 100*4 + 300,
		},
		{
			// Gap of 5: cycling (400) beats staying active (500).
			"long gap switches off",
			[]timeline.Interval{{Start: 1, End: 2}, {Start: 8, End: 9}},
			400 + 100*4 + 400,
		},
		{
			// Gap of 4: tie, either costs 400.
			"break-even gap",
			[]timeline.Interval{{Start: 1, End: 2}, {Start: 7, End: 8}},
			400 + 100*4 + 400,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var busy timeline.SegmentSet
			for _, iv := range tt.segs {
				busy.Insert(iv)
			}
			if got := SegmentCost(s, &busy); got != tt.want {
				t.Errorf("SegmentCost = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestServerStateIncrementalMatchesRecompute(t *testing.T) {
	s := testServer()
	st := NewServerState(s)
	vms := []model.VM{
		vm(1, 1, 5, 2),
		vm(2, 3, 8, 1),
		vm(3, 20, 25, 4),
		vm(4, 9, 19, 1), // bridges everything
	}
	var placed []model.VM
	for _, v := range vms {
		before := st.Cost()
		inc := st.IncrementalCost(v)
		with := st.CostWith(v)
		if math.Abs(with-(before+inc)) > 1e-9 {
			t.Fatalf("CostWith inconsistent: %g vs %g", with, before+inc)
		}
		st.Add(v)
		placed = append(placed, v)
		if math.Abs(st.Cost()-with) > 1e-9 {
			t.Fatalf("committed cost %g != preview %g", st.Cost(), with)
		}
		// Cross-check against the independent evaluator.
		want := EvaluateServer(s, placed).Total()
		if math.Abs(st.Cost()-want) > 1e-9 {
			t.Fatalf("after adding vm %d: state cost %g, evaluator %g", v.ID, st.Cost(), want)
		}
	}
	if st.VMs() != 4 {
		t.Errorf("VMs = %d, want 4", st.VMs())
	}
}

// TestCostWithMatchesCloneSpelling holds the allocation-free CostWith (and
// BusyGrowth) to the spelling it replaced, kept here as the reference:
// clone the busy set, insert the candidate, price the copy. The floats must
// be the same bits, not merely close — MinCost breaks ties on them. The
// random sets put the candidate inside a segment, adjacent to one, before
// and after all of them, and across several at once.
func TestCostWithMatchesCloneSpelling(t *testing.T) {
	s := testServer()
	s.PIdle, s.TransitionTime = 97.3, 1.7 // α = PPeak·TransitionTime sits among the gap costs
	rng := rand.New(rand.NewSource(5))
	merges := map[int]int{} // segments the candidate merged → times seen
	for trial := 0; trial < 300; trial++ {
		st := NewServerState(s)
		for i, n := 0, rng.Intn(12); i < n; i++ {
			start := 1 + rng.Intn(120)
			st.Add(vm(i, start, start+rng.Intn(6), 0.1+rng.Float64()))
		}
		for probe := 0; probe < 20; probe++ {
			start := 1 + rng.Intn(130)
			v := vm(100+probe, start, start+rng.Intn(40), 0.1+rng.Float64())
			preview := st.busy.Clone()
			preview.Insert(timeline.Interval{Start: v.Start, End: v.End})
			want := st.runCost + RunCost(s, v) + cloneSpellingCost(s, preview)
			if got := st.CostWith(v); got != want {
				t.Fatalf("trial %d: CostWith(%+v) on %v = %v, clone spelling %v", trial, v, st.busy.View(), got, want)
			}
			if got, want := st.segCost, cloneSpellingCost(s, &st.busy); got != want {
				t.Fatalf("trial %d: cached segment cost of %v = %v, clone spelling %v", trial, st.busy.View(), got, want)
			}
			if got, want := st.BusyGrowth(v), preview.Total()-st.busy.Total(); got != want {
				t.Fatalf("trial %d: BusyGrowth(%+v) on %v = %d, clone spelling %d", trial, v, st.busy.View(), got, want)
			}
			merges[len(st.busy.View())+1-len(preview.View())]++
		}
	}
	for _, merged := range []int{0, 1, 2, 3} {
		if merges[merged] == 0 {
			t.Errorf("no candidate merged %d segments: the cases are not covered (saw %v)", merged, merges)
		}
	}
	st := NewServerState(s)
	for i, start := range []int{3, 20, 40, 60, 80} {
		st.Add(vm(i, start, start+5, 1))
	}
	v := vm(9, 24, 62, 2)
	if allocs := testing.AllocsPerRun(100, func() { _ = st.IncrementalCost(v) }); allocs != 0 {
		t.Errorf("IncrementalCost allocates %v times a call, want 0", allocs)
	}
}

// cloneSpellingCost is the reference for SegmentCost and CostWith, which
// share one merged walk: the same formula over a materialised set and the
// idle gaps between its segments.
func cloneSpellingCost(s model.Server, busy *timeline.SegmentSet) float64 {
	if len(busy.View()) == 0 {
		return 0
	}
	alpha := s.TransitionCost()
	cost := alpha + s.PIdle*float64(busy.Total())
	segs := busy.View()
	for k := 1; k < len(segs); k++ {
		gapCost := s.PIdle * float64(segs[k].Start-segs[k-1].End-1)
		if alpha < gapCost {
			gapCost = alpha
		}
		cost += gapCost
	}
	return cost
}

func TestIncrementalCostNeverBelowRunCost(t *testing.T) {
	// Monotonicity: adding a VM can never cheapen the activity schedule, so
	// the incremental cost is at least W_ij. Exercised with random VMs.
	s := testServer()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		st := NewServerState(s)
		for i := 0; i < 10; i++ {
			start := 1 + rng.Intn(100)
			v := vm(i, start, start+rng.Intn(20), 1+float64(rng.Intn(3)))
			inc := st.IncrementalCost(v)
			if inc < RunCost(s, v)-1e-9 {
				t.Fatalf("trial %d: incremental cost %g below run cost %g", trial, inc, RunCost(s, v))
			}
			st.Add(v)
		}
	}
}

func TestActiveIntervals(t *testing.T) {
	s := testServer() // break-even gap = 4
	var busy timeline.SegmentSet
	busy.Insert(timeline.Interval{Start: 1, End: 2})
	busy.Insert(timeline.Interval{Start: 5, End: 6})   // gap 2 → bridge
	busy.Insert(timeline.Interval{Start: 20, End: 22}) // gap 13 → off
	got := ActiveIntervals(s, &busy)
	want := []timeline.Interval{{Start: 1, End: 6}, {Start: 20, End: 22}}
	if len(got) != len(want) {
		t.Fatalf("ActiveIntervals = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ActiveIntervals = %v, want %v", got, want)
		}
	}
	var empty timeline.SegmentSet
	if ivs := ActiveIntervals(s, &empty); ivs != nil {
		t.Errorf("empty ActiveIntervals = %v, want nil", ivs)
	}
}

// TestEvaluatorMatchesSegmentCost: the two independent formulations of the
// activity cost — Eq. 17 (SegmentCost) and the schedule-based Eq. 7
// (EvaluateServer) — must agree on random VM sets.
func TestEvaluatorMatchesSegmentCost(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		s := model.Server{
			ID:             1,
			Capacity:       model.Resources{CPU: 100, Mem: 100},
			PIdle:          50 + float64(rng.Intn(100)),
			TransitionTime: float64(rng.Intn(5)),
		}
		s.PPeak = s.PIdle * (1.8 + rng.Float64())
		var (
			vms     []model.VM
			busy    timeline.SegmentSet
			runCost float64
		)
		for i := 0; i < 1+rng.Intn(12); i++ {
			start := 1 + rng.Intn(200)
			v := vm(i, start, start+rng.Intn(30), 1+float64(rng.Intn(4)))
			vms = append(vms, v)
			busy.Insert(timeline.Interval{Start: v.Start, End: v.End})
			runCost += RunCost(s, v)
		}
		eq17 := runCost + SegmentCost(s, &busy)
		eq7 := EvaluateServer(s, vms).Total()
		if math.Abs(eq17-eq7) > 1e-6 {
			t.Fatalf("trial %d: Eq.17 cost %g != Eq.7 cost %g", trial, eq17, eq7)
		}
	}
}

func TestBreakdown(t *testing.T) {
	a := Breakdown{Run: 1, Idle: 2, Transition: 3}
	b := Breakdown{Run: 10, Idle: 20, Transition: 30}
	sum := a.Add(b)
	if sum != (Breakdown{Run: 11, Idle: 22, Transition: 33}) {
		t.Errorf("Add = %+v", sum)
	}
	if sum.Total() != 66 {
		t.Errorf("Total = %g, want 66", sum.Total())
	}
}

func TestEvaluateServerComponents(t *testing.T) {
	s := testServer()
	vms := []model.VM{vm(1, 1, 5, 2), vm(2, 10, 12, 1)} // gap 4 → tie: bridged
	b := EvaluateServer(s, vms)
	if b.Run != 100+30 {
		t.Errorf("Run = %g, want 130", b.Run)
	}
	// Gap of 4 is break-even (α = PIdle·4 = 400): schedule bridges it.
	if b.Transition != 400 {
		t.Errorf("Transition = %g, want 400", b.Transition)
	}
	if b.Idle != 100*12 {
		t.Errorf("Idle = %g, want 1200 (bridged span 1..12)", b.Idle)
	}
}

func TestEvaluateObjective(t *testing.T) {
	srvA := testServer()
	srvB := testServer()
	srvB.ID = 2
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 5, 2), vm(2, 1, 5, 2)},
		[]model.Server{srvA, srvB},
	)
	t.Run("consolidated vs spread", func(t *testing.T) {
		together, err := EvaluateObjective(inst, map[int]int{1: 1, 2: 1})
		if err != nil {
			t.Fatal(err)
		}
		spread, err := EvaluateObjective(inst, map[int]int{1: 1, 2: 2})
		if err != nil {
			t.Fatal(err)
		}
		if together.Total() >= spread.Total() {
			t.Errorf("consolidation should be cheaper: together %g, spread %g",
				together.Total(), spread.Total())
		}
		// Spread pays exactly one extra α and one extra idle block.
		wantDiff := srvB.TransitionCost() + srvB.PIdle*5
		if math.Abs(spread.Total()-together.Total()-wantDiff) > 1e-9 {
			t.Errorf("diff = %g, want %g", spread.Total()-together.Total(), wantDiff)
		}
	})
	t.Run("unplaced vm", func(t *testing.T) {
		if _, err := EvaluateObjective(inst, map[int]int{1: 1}); err == nil {
			t.Error("want error for unplaced VM")
		}
	})
	t.Run("unknown server", func(t *testing.T) {
		if _, err := EvaluateObjective(inst, map[int]int{1: 1, 2: 99}); err == nil {
			t.Error("want error for unknown server")
		}
	})
}

// TestEvaluateObjectiveReproducible: one placement priced fifty times gives
// the same bits. The evaluator used to sum the servers' breakdowns in map
// order, which moved the total's last digits from call to call.
func TestEvaluateObjectiveReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	servers := make([]model.Server, 40)
	for i := range servers {
		s := testServer()
		s.ID = i + 1
		s.PIdle, s.PPeak = 60+37*rng.Float64(), 180+91*rng.Float64()
		s.TransitionTime = 0.5 + 2*rng.Float64()
		servers[i] = s
	}
	vms := make([]model.VM, 250)
	placement := make(map[int]int, len(vms))
	for j := range vms {
		start := 1 + rng.Intn(400)
		vms[j] = vm(j+1, start, start+rng.Intn(50), 0.1+rng.Float64())
		placement[j+1] = servers[rng.Intn(len(servers))].ID
	}
	inst := model.NewInstance(vms, servers)
	want, err := EvaluateObjective(inst, placement)
	if err != nil {
		t.Fatal(err)
	}
	for call := 1; call < 50; call++ {
		got, err := EvaluateObjective(inst, placement)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range [][2]float64{{got.Run, want.Run}, {got.Idle, want.Idle}, {got.Transition, want.Transition}} {
			if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
				t.Fatalf("call %d: %+v, the first call gave %+v", call, got, want)
			}
		}
	}
}
