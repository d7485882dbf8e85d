package online

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"slices"
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
	for _, ev := range fl.events.pending() {
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

// eventOracle is the queue's specification: the pending events, sorted
// by (time, kind, seq) at every pop.
type eventOracle []event

func (o *eventOracle) pop(until int) (event, bool) {
	slices.SortFunc(*o, func(x, y event) int {
		return cmp.Or(cmp.Compare(x.time, y.time), cmp.Compare(x.kind, y.kind), cmp.Compare(x.seq, y.seq))
	})
	if len(*o) == 0 || (*o)[0].time > until {
		return event{}, false
	}
	ev := (*o)[0]
	*o = (*o)[1:]
	return ev, true
}

// pending lists the queue's events, minute by minute in heap order and
// kind by kind within a minute.
func (q *eventQueue) pending() []event {
	var out []event
	for _, m := range q.minutes {
		for _, f := range q.buckets[m.bucket] {
			for s := f.head; s >= 0; s = q.slab[s].next {
				out = append(out, q.slab[s].ev)
			}
		}
	}
	return out
}

// popBoth pops the queue and the oracle up to minute until, fails unless
// they agree, and reports whether an event came out.
func popBoth(tb testing.TB, q *eventQueue, o *eventOracle, until int) bool {
	tb.Helper()
	got, ok := q.pop(until)
	want, wantOK := o.pop(until)
	if got != want || ok != wantOK {
		tb.Fatalf("pop until %d = %+v %t, want %+v %t", until, got, ok, want, wantOK)
	}
	return ok
}

// drainBoth pops both to the end and checks that the queue let go of
// every minute it held.
func drainBoth(tb testing.TB, q *eventQueue, o *eventOracle) {
	tb.Helper()
	for popBoth(tb, q, o, math.MaxInt) {
	}
	if len(q.minutes) != 0 || len(q.bucketOf) != 0 {
		tb.Fatalf("drained queue holds minutes %v, buckets %v", q.minutes, q.bucketOf)
	}
}

// TestEventQueue: the bucket queue pops in the oracle's (time, kind, seq)
// order — seeded random pushes interleaved with pops that stop at a
// minute, pushes before the first pending minute, and a same-minute push
// of a lower kind while a higher kind drains — and once its slab, buckets
// and map have grown a push and a pop allocate nothing.
func TestEventQueue(t *testing.T) {
	q := newEventQueue()
	var o eventOracle
	seq := 0
	push := func(time, kind int) {
		ev := event{time: time, kind: kind, seq: seq, srv: seq % 8, vmID: seq}
		seq++
		q.push(ev)
		o = append(o, ev)
	}

	rng := rand.New(rand.NewSource(1))
	for now := 0; seq < 2000; {
		push(now+rng.Intn(40)-rng.Intn(2)*rng.Intn(10), 1+rng.Intn(evCleanup))
		if rng.Intn(3) == 0 { // interleave pops with pushes, as the fleet does
			now += rng.Intn(3)
			for popBoth(t, &q, &o, now) && rng.Intn(4) != 0 {
			}
		}
	}
	drainBoth(t, &q, &o)

	// Earlier than the first pending minute: a new first bucket.
	push(20, evDeparture)
	push(10, evIdleCheck)
	if popBoth(t, &q, &o, 5) {
		t.Fatal("popped an event before its minute")
	}
	push(3, evCleanup)
	push(10, evWakeDone)
	popBoth(t, &q, &o, 10)
	// A lower kind pushed into minute 10 while its idle checks drain
	// comes out before the rest of them, as the fleet's handlers push.
	push(10, evIdleCheck)
	popBoth(t, &q, &o, 10)
	push(10, evDeparture)
	push(10, evCleanup)
	push(10, evDeparture)
	drainBoth(t, &q, &o)
	if got := q.pending(); len(got) != 0 {
		t.Fatalf("%d events pending after draining", len(got))
	}

	if allocs := testing.AllocsPerRun(100, func() {
		push(seq%7, evDeparture)
		push(seq%5, evIdleCheck)
		q.pop(math.MaxInt)
		q.pop(math.MaxInt)
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per two pushes and pops, want 0", allocs)
	}
}

// FuzzEventQueue drives the queue with pushes and pops from bytes against
// the sort oracle: each byte pair is an op and a minute in [-128, 127], a
// pop up to that minute when the op's low bits are 0, else a push there
// of the kind its high bits name.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{1, 20, 2, 10, 0, 5, 3, 3, 0, 10, 5, 10, 0, 10, 9, 10})
	f.Add([]byte{13, 200, 1, 0, 2, 255, 0, 127, 7, 7, 11, 7, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := newEventQueue()
		var o eventOracle
		for i := 0; i+1 < len(data); i += 2 {
			op, minute := data[i], int(int8(data[i+1]))
			if op&3 == 0 {
				popBoth(t, &q, &o, minute)
				continue
			}
			ev := event{time: minute, kind: 1 + int(op>>2)%evCleanup, seq: i, srv: int(op >> 4)}
			q.push(ev)
			o = append(o, ev)
		}
		drainBoth(t, &q, &o)
	})
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
