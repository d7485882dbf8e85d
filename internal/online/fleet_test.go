package online

import (
	"testing"

	"vmalloc/internal/model"
	"vmalloc/internal/workload"
)

// fits asks the probe Commit runs whether v fits server i from start on,
// after the compile a policy scan runs at its entry.
func fits(f *FleetView, i int, v model.VM, start int) bool {
	f.compile()
	ok, _ := f.probe(i, v.Demand.CPU, v.Demand.Mem, start, start+v.Duration()-1)
	return ok
}

// TestScoredPolicyTieBreak pins the documented guarantee: equal-cost
// candidates resolve to the lowest server index, for both scored
// policies, matching the offline engine's deterministic argmin.
func TestScoredPolicyTieBreak(t *testing.T) {
	policies := []Policy{
		&MinCostPolicy{},
		&DelayAwareMinCostPolicy{PenaltyPerMinute: 100},
	}
	// Four identical servers: every feasible candidate scores the same.
	servers := []model.Server{
		srv(1, 10, 16, 100, 200, 1),
		srv(2, 10, 16, 100, 200, 1),
		srv(3, 10, 16, 100, 200, 1),
		srv(4, 10, 16, 100, 200, 1),
	}
	// The servers differ in ID only, so their costs really are equal —
	// otherwise the test proves nothing about tie-breaking.
	for _, s := range servers[1:] {
		if s.ID = servers[0].ID; s != servers[0] {
			t.Fatalf("servers differ beyond their ID (%+v vs %+v); fixture is broken", s, servers[0])
		}
	}
	for _, p := range policies {
		fl := NewFleet(servers, 0)
		v := vm(1, 1, 10, 2, 2)
		fl.AdvanceTo(1)
		i, err := p.Place(fl.View(), v)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if i != 0 {
			t.Errorf("%s: all-equal tie resolved to index %d, want 0", p.Name(), i)
		}
	}
	// Fill servers 0 and 1: the tie among the remaining candidates must
	// resolve to index 2, not any later equal-cost server.
	for _, p := range policies {
		fl := NewFleet(servers, 0)
		fl.AdvanceTo(1)
		blocker := vm(90, 1, 30, 10, 16) // consumes a full server
		if _, err := fl.Commit(0, blocker); err != nil {
			t.Fatal(err)
		}
		blocker.ID = 91
		if _, err := fl.Commit(1, blocker); err != nil {
			t.Fatal(err)
		}
		i, err := p.Place(fl.View(), vm(1, 1, 10, 2, 2))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if i != 2 {
			t.Errorf("%s: tie among feasible servers resolved to index %d, want 2", p.Name(), i)
		}
	}
}

// TestFleetReleaseRefund: releasing a VM halfway refunds the run cost of
// the unused minutes, frees the capacity immediately, and starts the idle
// countdown.
func TestFleetReleaseRefund(t *testing.T) {
	// Server: 10 W/CU marginal power. VM: 2 CPU over [1, 20] → run 400.
	fl := NewFleet([]model.Server{srv(1, 10, 16, 100, 200, 1)}, 0)
	fl.AdvanceTo(1)
	if _, err := fl.Commit(0, vm(1, 1, 20, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if got := fl.EnergyAt(fl.Now()).Run; got != 400 {
		t.Fatalf("Run after admit = %g, want 400", got)
	}
	// Release at t=10 (wake took 1 min, start=2): used minutes [2,10] = 9,
	// unused 11 → refund 2 CPU · 10 W/CU · 11 min = 220.
	fl.AdvanceTo(10)
	p, err := fl.Release(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Start != 2 {
		t.Fatalf("Start = %d, want 2", p.Start)
	}
	if got := fl.EnergyAt(fl.Now()).Run; got != 180 {
		t.Errorf("Run after release = %g, want 180", got)
	}
	if _, ok := fl.Resident(1); ok {
		t.Error("vm still resident after release")
	}
	// The capacity is free for the rest of the horizon.
	if !fits(fl.View(), 0, vm(2, 11, 20, 10, 16), 11) {
		t.Error("full-capacity VM does not fit after release")
	}
	// Idle timeout 0: the server sleeps at t=10; at t=30 it is sleeping
	// and the stretch [2, 10] was accounted at 100 W.
	fl.AdvanceTo(30)
	if got := fl.View().StateOf(0); got != PowerSaving {
		t.Errorf("state = %v, want power-saving", got)
	}
	if got := fl.EnergyAt(30).Idle; got != 800 {
		t.Errorf("Idle = %g, want 800", got)
	}
	if fl.Released() != 1 || fl.Admitted() != 1 {
		t.Errorf("counters = (admitted %d, released %d)", fl.Admitted(), fl.Released())
	}
	if _, err := fl.Release(1); err == nil {
		t.Error("double release succeeded")
	}
}

// TestFleetReleaseBeforeWake: a VM released while its server is still
// waking never ran — full refund, and the server goes back to sleep after
// the pointless wake completes.
func TestFleetReleaseBeforeWake(t *testing.T) {
	fl := NewFleet([]model.Server{srv(1, 10, 16, 100, 200, 5)}, 0)
	fl.AdvanceTo(1)
	if _, err := fl.Commit(0, vm(1, 1, 20, 2, 2)); err != nil {
		t.Fatal(err)
	}
	fl.AdvanceTo(2) // wake completes at t=6
	if _, err := fl.Release(1); err != nil {
		t.Fatal(err)
	}
	b := fl.EnergyAt(fl.Now())
	if b.Run != 0 {
		t.Errorf("Run = %g after releasing a never-started VM, want 0", b.Run)
	}
	if b.Transition != 1000 { // α = 200·5 is spent either way
		t.Errorf("Transition = %g, want 1000", b.Transition)
	}
	fl.AdvanceTo(50)
	if got := fl.View().StateOf(0); got != PowerSaving {
		t.Errorf("state = %v at t=50, want power-saving (idle countdown after empty wake)", got)
	}
}

// TestFleetDepartureIDReuse: releasing a VM and re-admitting its ID must
// not let the old VM's still-queued departure evict the new incarnation —
// or touch the old server's ledger and VM count. Departure events verify
// (server, end) identity against the current resident before applying.
func TestFleetDepartureIDReuse(t *testing.T) {
	servers := []model.Server{
		srv(1, 10, 16, 100, 200, 1),
		srv(2, 10, 16, 100, 200, 1),
	}
	fl := NewFleet(servers, -1) // never sleep: keep power states out of the way
	fl.AdvanceTo(1)
	// VM 7 on server 0; wake takes 1 minute, so it runs [2, 21].
	if _, err := fl.Commit(0, vm(7, 1, 20, 2, 2)); err != nil {
		t.Fatal(err)
	}
	fl.AdvanceTo(10)
	if _, err := fl.Release(7); err != nil {
		t.Fatal(err)
	}
	// Reuse ID 7 on server 1, running well past the old VM's end.
	if _, err := fl.Commit(1, vm(7, 10, 60, 2, 2)); err != nil {
		t.Fatal(err)
	}
	// Cross the old VM's end+1: the stale departure must be ignored.
	fl.AdvanceTo(30)
	p, ok := fl.Resident(7)
	if !ok {
		t.Fatal("re-admitted vm 7 was evicted by the old vm's departure")
	}
	if p.Server != 1 {
		t.Fatalf("vm 7 on server index %d, want 1", p.Server)
	}
	if got := fl.View().Running(1); got != 1 {
		t.Errorf("server 1 holds %d vms, want 1", got)
	}
	// The stale departure must not have decremented server 0's count.
	if got := fl.View().Running(0); got != 0 {
		t.Errorf("server 0 holds %d vms, want 0", got)
	}
	// Server 1 must still hold the new VM's reservation through minute 61.
	if fits(fl.View(), 1, vm(99, 30, 60, 9, 2), 30) {
		t.Error("server 1 lost vm 7's reservation to the stale departure")
	}
	// The real departure still fires at the new end.
	fl.AdvanceTo(63)
	if _, ok := fl.Resident(7); ok {
		t.Error("vm 7 still resident after its real end")
	}
	if got := fl.View().Running(1); got != 0 {
		t.Errorf("server 1 holds %d vms after the real departure, want 0", got)
	}
}

// TestFleetReleaseCleansLedger: a started-then-released VM keeps its
// consumed minutes in the ledger only until they are past; the entry is
// then reclaimed, so a long-running service's per-server ledgers (and
// MaxUsage scans) do not grow with every release.
func TestFleetReleaseCleansLedger(t *testing.T) {
	fl := NewFleet([]model.Server{srv(1, 10, 16, 100, 200, 1)}, -1)
	for i := 1; i <= 50; i++ {
		at := i * 10
		fl.AdvanceTo(at)
		if _, err := fl.Commit(0, vm(i, at, at+100, 2, 2)); err != nil {
			t.Fatal(err)
		}
		fl.AdvanceTo(at + 5) // the VM starts and runs a few minutes
		if _, err := fl.Release(i); err != nil {
			t.Fatal(err)
		}
	}
	held := func() (n int) { // reservations the ledger still holds, by id
		for id := 1; id <= 50; id++ {
			if _, ok := fl.view.units[0].res.Get(id); ok {
				n++
			}
		}
		return n
	}
	fl.AdvanceTo(10_000)
	if got := held(); got != 0 {
		t.Errorf("ledger holds %d entries after every release passed, want 0", got)
	}
	// A release whose ID is immediately re-admitted to the same server must
	// not have its truncated entry's cleanup remove the new reservation.
	fl.AdvanceTo(20_000)
	if _, err := fl.Commit(0, vm(7, 20_000, 20_100, 2, 2)); err != nil {
		t.Fatal(err)
	}
	fl.AdvanceTo(20_010)
	if _, err := fl.Release(7); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Commit(0, vm(7, 20_010, 20_100, 2, 2)); err != nil {
		t.Fatal(err)
	}
	fl.AdvanceTo(20_050)
	if _, ok := fl.Resident(7); !ok {
		t.Fatal("re-admitted vm 7 not resident")
	}
	if got := held(); got != 1 {
		t.Errorf("ledger holds %d entries with one resident, want 1", got)
	}
}

// TestFleetSnapshotRestore: a fleet snapshotted mid-run and restored must
// evolve identically to the original from that point on.
func TestFleetSnapshotRestore(t *testing.T) {
	inst, err := workload.Generate(
		workload.Spec{NumVMs: 60, MeanInterArrival: 2, MeanLength: 40},
		workload.FleetSpec{NumServers: 25, TransitionTime: 2},
		7,
	)
	if err != nil {
		t.Fatal(err)
	}
	policy := &MinCostPolicy{}
	drive := func(fl *Fleet, vms []model.VM) {
		for _, v := range vms {
			fl.AdvanceTo(v.Start)
			i, err := policy.Place(fl.View(), v)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fl.Commit(i, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	vms := ArrivalOrder(inst.VMs)
	half := len(vms) / 2

	ref := NewFleet(inst.Servers, 2)
	drive(ref, vms)

	fl := NewFleet(inst.Servers, 2)
	drive(fl, vms[:half])
	restored, err := RestoreFleet(inst.Servers, 2, fl.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	drive(restored, vms[half:])

	ref.Drain()
	restored.Drain()
	if a, b := ref.EnergyAt(ref.Now()), restored.EnergyAt(restored.Now()); a != b {
		t.Errorf("energy diverged: uninterrupted %+v, restored %+v", a, b)
	}
	if ref.Transitions() != restored.Transitions() {
		t.Errorf("transitions: %d vs %d", ref.Transitions(), restored.Transitions())
	}
	if ref.Now() != restored.Now() {
		t.Errorf("final clocks: %d vs %d", ref.Now(), restored.Now())
	}
	if ref.ServersUsed() != restored.ServersUsed() {
		t.Errorf("servers used: %d vs %d", ref.ServersUsed(), restored.ServersUsed())
	}
}

// TestFleetCommitErrors covers the defensive checks.
func TestFleetCommitErrors(t *testing.T) {
	fl := NewFleet([]model.Server{srv(1, 10, 16, 100, 200, 1)}, 0)
	fl.AdvanceTo(5)
	if _, err := fl.Commit(3, vm(1, 5, 9, 1, 1)); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := fl.Commit(0, vm(1, 2, 9, 1, 1)); err == nil {
		t.Error("start before the clock accepted")
	}
	if _, err := fl.Commit(0, vm(1, 5, 9, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Commit(0, vm(1, 6, 9, 1, 1)); err == nil {
		t.Error("duplicate resident id accepted")
	}
	if _, err := fl.Commit(0, vm(2, 5, 9, 100, 1)); err == nil {
		t.Error("oversized VM accepted")
	}
}
