package online

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"vmalloc/internal/energy"
	"vmalloc/internal/model"
)

// exactMinCost is the scored policies' reference scan: every server
// priced from its model.Server through the energy package, feasibility
// asked only of exactFits. It returns -1 when nothing fits, how many
// feasible servers share the winning price, and whether one of them has a
// lower P¹ than the winner: a tie across price classes that only the
// lowest-index rule settles.
func exactMinCost(f *FleetView, v model.VM, penalty float64) (best, ties int, crossTie bool) {
	best = -1
	var bestCost, minTiedP1 float64
	for i := 0; i < f.NumServers(); i++ {
		if !exactFits(f, i, v, f.StartTime(i, v)) {
			continue
		}
		cost, p1 := exactPrice(f, i, v, penalty), f.Server(i).UnitCPUPower()
		switch {
		case best < 0 || cost < bestCost:
			best, bestCost, ties, minTiedP1 = i, cost, 1, p1
		case cost == bestCost:
			ties++
			minTiedP1 = min(minTiedP1, p1)
		}
	}
	return best, ties, best >= 0 && minTiedP1 < f.Server(best).UnitCPUPower()
}

// exactPrice is server i's price for v in the scored policies' terms:
// energy.RunCost, plus α when it sleeps, plus the idle power v alone would
// keep it on for, plus penalty per minute of start delay.
func exactPrice(f *FleetView, i int, v model.VM, penalty float64) float64 {
	s := f.Server(i)
	cost := energy.RunCost(s, v)
	if f.StateOf(i) == PowerSaving {
		cost += s.TransitionCost()
	}
	if f.Running(i) == 0 {
		cost += s.PIdle * float64(v.Duration())
	}
	return cost + penalty*float64(f.StartTime(i, v)-v.Start)
}

// checkRows asserts that the dirty list names each flagged unit once,
// then that every row a scan reads — after the compile at its entry —
// equals the one recomputed from its unit, its ledger and the resident
// set, and that the fields only the row holds (state, wakeDone) are
// consistent with the clock and the queue.
func checkRows(t *testing.T, fl *Fleet, when string) {
	t.Helper()
	listed := map[int]bool{}
	for _, i := range fl.view.dirty {
		if listed[i] || !fl.view.units[i].dirty {
			t.Fatalf("%s: dirty list %v names server %d twice or unflagged", when, fl.view.dirty, i)
		}
		listed[i] = true
	}
	for i := range fl.view.units {
		if fl.view.units[i].dirty != listed[i] {
			t.Fatalf("%s: server %d flagged dirty %t, listed %t", when, i, fl.view.units[i].dirty, listed[i])
		}
	}
	fl.view.compile()
	vms := make([]int, len(fl.view.rows))
	for _, p := range fl.resident {
		vms[p.Server]++
	}
	wakes := map[int]int{} // server → pending wake-up completion
	for _, ev := range fl.events {
		if ev.kind == evWakeDone && fl.view.rows[ev.srv].state == Waking && fl.view.rows[ev.srv].wakeDone == ev.time {
			wakes[ev.srv] = ev.time
		}
	}
	for i := range fl.view.rows {
		got := fl.view.rows[i]
		u := &fl.view.units[i]
		want := row{
			capCPU: u.srv.Capacity.CPU, capMem: u.srv.Capacity.Mem,
			sum: u.res.Summary(),
			p1:  u.srv.UnitCPUPower(), alpha: u.srv.TransitionCost(), pIdle: u.srv.PIdle,
			wake:     int(math.Ceil(u.srv.TransitionTime)),
			wakeDone: got.wakeDone,
			state:    got.state,
			vms:      vms[i],
		}
		if got != want {
			t.Fatalf("%s: server %d row = %+v, recomputed %+v", when, i, got, want)
		}
		switch got.state {
		case PowerSaving:
			if got.vms != 0 {
				t.Fatalf("%s: server %d sleeps with %d VMs committed", when, i, got.vms)
			}
		case Waking:
			if got.wakeDone < fl.view.now || wakes[i] != got.wakeDone { // == now: a zero-minute wake-up, completed by the next advance
				t.Fatalf("%s: server %d waking until %d at clock %d, queued completion %d", when, i, got.wakeDone, fl.view.now, wakes[i])
			}
		case Active:
		default:
			t.Fatalf("%s: server %d in state %v", when, i, got.state)
		}
	}
}

// TestRowsMatchLedgers drives seeded random Commit / Release / Migrate /
// Adopt / AdvanceTo / Snapshot→RestoreFleet sequences — ID reuse, releases
// before the wake-up completes and releases of started VMs (truncated
// stubs) included — and checks the row table after every step.
func TestRowsMatchLedgers(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		servers := make([]model.Server, 6)
		for i := range servers {
			servers[i] = srv(i+1, float64(6+rng.Intn(6)), float64(8+rng.Intn(10)), 100, 200+float64(rng.Intn(50)), 0.5*float64(rng.Intn(5)))
		}
		timeout := []int{-1, 0, 2}[rng.Intn(3)]
		fl := NewFleet(servers, timeout)
		fl.AdvanceTo(1)
		checkRows(t, fl, "new fleet")
		policies := []Policy{&MinCostPolicy{}, &DelayAwareMinCostPolicy{PenaltyPerMinute: 50}, &PreferActivePolicy{}, NewFirstFitPolicy(seed)}
		var freed []int // released IDs, reused by later admissions
		nextID := 1
		newVM := func() model.VM {
			id := nextID
			if len(freed) > 0 && rng.Intn(2) == 0 {
				id, freed = freed[0], freed[1:]
			} else {
				nextID++
			}
			start := fl.Now() + rng.Intn(4)
			return vm(id, start, start+rng.Intn(25), float64(1+rng.Intn(4)), float64(1+rng.Intn(6)))
		}
		someResident := func() (PlacedVM, bool) {
			rs := fl.Residents()
			if len(rs) == 0 {
				return PlacedVM{}, false
			}
			return rs[rng.Intn(len(rs))], true
		}
		for op := 0; op < 300; op++ {
			var when string
			switch r := rng.Intn(100); {
			case r < 40:
				when = "commit"
				v := newVM()
				if _, resident := fl.Resident(v.ID); resident {
					continue
				}
				i, err := policies[rng.Intn(len(policies))].Place(fl.View(), v)
				if err != nil {
					continue
				}
				if _, err := fl.Commit(i, v); err != nil {
					t.Fatalf("seed %d op %d: commit: %v", seed, op, err)
				}
				if rng.Intn(5) == 0 {
					when = "commit then release before the wake-up"
					if _, err := fl.Release(v.ID); err != nil {
						t.Fatalf("seed %d op %d: release: %v", seed, op, err)
					}
					freed = append(freed, v.ID)
				}
			case r < 55:
				when = "release"
				p, ok := someResident()
				if !ok {
					continue
				}
				if _, err := fl.Release(p.VM.ID); err != nil {
					t.Fatalf("seed %d op %d: release: %v", seed, op, err)
				}
				freed = append(freed, p.VM.ID)
			case r < 67:
				when = "migrate"
				p, ok := someResident()
				if !ok {
					continue
				}
				var me *MigrateError
				if _, _, err := fl.Migrate(p.VM.ID, rng.Intn(len(servers))); err != nil && !errors.As(err, &me) {
					t.Fatalf("seed %d op %d: migrate: %v", seed, op, err)
				}
			case r < 77:
				when = "adopt"
				v := newVM()
				if _, resident := fl.Resident(v.ID); resident {
					continue
				}
				v.Start = max(1, v.Start-rng.Intn(6)) // may have started on its old shard
				var ae *AdoptError
				if _, err := fl.Adopt(rng.Intn(len(servers)), v, v.Start+rng.Intn(3)); err != nil && !errors.As(err, &ae) {
					t.Fatalf("seed %d op %d: adopt: %v", seed, op, err)
				}
			case r < 95:
				when = "advance"
				fl.AdvanceTo(fl.Now() + 1 + rng.Intn(4))
			default:
				when = "snapshot and restore"
				restored, err := RestoreFleet(servers, timeout, fl.Snapshot())
				if err != nil {
					t.Fatalf("seed %d op %d: restore: %v", seed, op, err)
				}
				for i := range fl.view.rows {
					a, b := fl.view.rows[i], restored.view.rows[i]
					if a.state != b.state || a.vms != b.vms || (a.state == Waking && a.wakeDone != b.wakeDone) {
						t.Fatalf("seed %d op %d: server %d restored as %+v from %+v", seed, op, i, b, a)
					}
				}
				fl = restored
			}
			checkRows(t, fl, when)
		}
		fl.Drain()
		checkRows(t, fl, "drained")
	}
}

// TestEventQueue: the typed heap pops seeded random events in sorted
// (time, kind, seq) order, and once its backing array has grown a push
// and a pop allocate nothing.
func TestEventQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q eventQueue
	var want []event
	for seq := 0; seq < 500; seq++ {
		ev := event{time: rng.Intn(40), kind: 1 + rng.Intn(4), seq: seq, srv: rng.Intn(8)}
		q.push(ev)
		want = append(want, ev)
		if rng.Intn(3) == 0 { // interleave pops with pushes, as the fleet does
			sort.Slice(want, eventQueue(want).less)
			if got := q.pop(); got != want[0] {
				t.Fatalf("pop %d = %+v, want %+v", seq, got, want[0])
			}
			want = want[1:]
		}
	}
	sort.Slice(want, eventQueue(want).less)
	for k, w := range want {
		if got := q.pop(); got != w {
			t.Fatalf("drain pop %d = %+v, want %+v", k, got, w)
		}
	}
	if len(q) != 0 {
		t.Fatalf("%d events left after draining", len(q))
	}
	seq := 1000
	if allocs := testing.AllocsPerRun(100, func() {
		q.push(event{time: seq % 7, kind: evDeparture, seq: seq})
		seq++
		q.pop()
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per push and pop, want 0", allocs)
	}
}

// TestPlaceAllocFree pins the pass's zero-allocation contract on the
// benchmark probe's fleet.
func TestPlaceAllocFree(t *testing.T) {
	fl, rest := probeFleet(t, false)
	pol := &MinCostPolicy{}
	k := 0
	allocs := testing.AllocsPerRun(100, func() {
		v := rest[k%len(rest)]
		k++
		v.Start, v.End = fl.Now(), fl.Now()+30
		if _, err := pol.Place(fl.View(), v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per MinCostPolicy.Place, want 0", allocs)
	}
}
