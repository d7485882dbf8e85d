package online

import (
	"errors"
	"testing"

	"vmalloc/internal/model"
)

// TestFleetAdoptCrossShard plays out a cross-shard drain on two
// independent fleets (the real deployment's two shards): adopt on the
// new owner, then release on the old. The VM's (start, end) identity is
// preserved on the adopter, and the combined energy matches what a
// single-fleet Migrate of the same VM would account — the source
// refunds the remaining minutes at its marginal rate, the adopter
// charges them at its own.
func TestFleetAdoptCrossShard(t *testing.T) {
	a := srv(1, 10, 16, 100, 200, 0) // P¹ = 10 W/CU
	b := srv(2, 10, 16, 50, 250, 0)  // P¹ = 20 W/CU
	src := NewFleet([]model.Server{a}, -1)
	dst := NewFleet([]model.Server{b}, -1)
	v := vm(1, 0, 9, 2, 2) // 10 minutes, 2 CPU
	if _, err := src.Commit(0, v); err != nil {
		t.Fatal(err)
	}
	src.AdvanceTo(5)
	dst.AdvanceTo(5)

	p, _ := src.Resident(1)
	handoff, err := dst.Adopt(0, p.VM, p.Start)
	if err != nil {
		t.Fatal(err)
	}
	if handoff != 6 {
		t.Fatalf("handoff = %d, want 6 (next minute for a started VM)", handoff)
	}
	if _, err := src.Release(1); err != nil {
		t.Fatal(err)
	}

	got, ok := dst.Resident(1)
	if !ok || got.Start != 0 || got.End() != 9 || got.Server != 0 {
		t.Fatalf("adopted resident = %+v (ok=%v), want (0, 9) identity", got, ok)
	}
	if dst.adopted != 1 {
		t.Fatalf("Adopted() = %d, want 1", dst.adopted)
	}
	// Adoption is not an admission and grants no new start delay.
	if dst.Admitted() != 0 || dst.StartDelayTotal() != 0 {
		t.Fatalf("admitted = %d, delay = %d; adoption must not count as admission", dst.Admitted(), dst.StartDelayTotal())
	}
	// Source kept [0,5] (6 used minutes): 200 − 10·2·4 = 120.
	// Adopter hosts [6,9]: 20·2·4 = 160. Combined 280, exactly what the
	// single-fleet Migrate accounting test pins for the same move.
	if got := src.EnergyAt(5).Run; got != 120 {
		t.Fatalf("source run = %g, want 120", got)
	}
	if got := dst.EnergyAt(5).Run; got != 160 {
		t.Fatalf("adopter run = %g, want 160", got)
	}

	// The adopted VM departs on schedule.
	dst.Drain()
	if _, ok := dst.Resident(1); ok {
		t.Fatal("adopted vm still resident after its end")
	}
}

// TestFleetAdoptBeforeStart adopts a VM that has not started yet: the
// handoff is the VM's own (actual) start and the full run cost lands on
// the adopter.
func TestFleetAdoptBeforeStart(t *testing.T) {
	fl := NewFleet([]model.Server{srv(2, 10, 16, 50, 250, 0)}, -1)
	fl.AdvanceTo(2)
	handoff, err := fl.Adopt(0, vm(7, 5, 14, 2, 2), 5)
	if err != nil {
		t.Fatal(err)
	}
	if handoff != 5 {
		t.Fatalf("handoff = %d, want the actual start 5", handoff)
	}
	if got := fl.EnergyAt(2).Run; got != 400 { // 20 W/CU · 2 CPU · 10 min
		t.Fatalf("run = %g, want 400", got)
	}
}

// TestFleetAdoptDelayedStart: an adoption carries the actual start the
// original owner granted, not the requested one — a VM that was wake-
// delayed at first admission keeps its shifted interval.
func TestFleetAdoptDelayedStart(t *testing.T) {
	fl := NewFleet([]model.Server{srv(2, 10, 16, 50, 250, 0)}, -1)
	// Requested start 3, actually started at 5 on its old owner.
	handoff, err := fl.Adopt(0, vm(8, 3, 12, 2, 2), 5)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := fl.Resident(8)
	if p.Start != 5 || p.End() != 14 {
		t.Fatalf("adopted interval = (%d, %d), want (5, 14): duration preserved from the shifted start", p.Start, p.End())
	}
	if handoff != 5 {
		t.Fatalf("handoff = %d, want 5", handoff)
	}
	// An actual start before the requested one is a corrupt request.
	if _, err := fl.Adopt(0, vm(9, 3, 12, 2, 2), 2); err == nil {
		t.Fatal("Adopt accepted an actual start before the requested start")
	}
}

// TestFleetAdoptWakesSleepingTarget: unlike Migrate, a sleeping target
// is not a refusal — the handoff is pushed to the wake completion and
// the wake is accounted exactly as an admission's would be.
func TestFleetAdoptWakesSleepingTarget(t *testing.T) {
	fl := NewFleet([]model.Server{srv(2, 10, 16, 50, 250, 3)}, -1)
	fl.AdvanceTo(4)
	handoff, err := fl.Adopt(0, vm(3, 0, 19, 2, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if handoff != 7 { // wake takes 3 minutes from now=4
		t.Fatalf("handoff = %d, want 7 (pushed to wake completion)", handoff)
	}
	e := fl.EnergyAt(4)
	if e.Transition == 0 {
		t.Fatal("no transition cost accounted for the wake")
	}
	// Hosted minutes are [7, 19]: 20 W/CU · 2 CPU · 13 min.
	if e.Run != 520 {
		t.Fatalf("run = %g, want 520", e.Run)
	}
}

// TestFleetAdoptInfeasible enumerates the refusal cases; each leaves the
// fleet untouched.
func TestFleetAdoptInfeasible(t *testing.T) {
	fl := NewFleet([]model.Server{srv(2, 4, 8, 50, 250, 0)}, -1)
	if _, err := fl.Adopt(0, vm(1, 0, 9, 2, 2), 0); err != nil {
		t.Fatal(err)
	}
	var ae *AdoptError

	// Already resident here.
	if _, err := fl.Adopt(0, vm(1, 0, 9, 1, 1), 0); !errors.As(err, &ae) {
		t.Fatalf("duplicate adopt: %v, want *AdoptError", err)
	}
	// No remaining minutes: the VM's interval is entirely past.
	fl.AdvanceTo(20)
	if _, err := fl.Adopt(0, vm(2, 0, 9, 1, 1), 0); !errors.As(err, &ae) || ae.Reason != "no remaining minutes to host" {
		t.Fatalf("expired adopt: %v", err)
	}
	// Capacity: demand exceeds the server outright.
	if _, err := fl.Adopt(0, vm(3, 20, 29, 8, 8), 20); !errors.As(err, &ae) {
		t.Fatalf("oversized adopt: %v, want *AdoptError", err)
	}
	// Capacity over the remaining interval.
	if _, err := fl.Adopt(0, vm(4, 20, 29, 3, 3), 20); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Adopt(0, vm(5, 20, 29, 2, 2), 20); !errors.As(err, &ae) || ae.Reason != "target lacks capacity over the remaining interval" {
		t.Fatalf("over-capacity adopt: %v", err)
	}
	if fl.adopted != 2 {
		t.Fatalf("Adopted() = %d, want 2 (failed adoptions must not count)", fl.adopted)
	}
}

// TestFleetAdoptSnapshotRoundTrip: the adopted counter and the adopted
// placement survive a snapshot/restore cycle.
func TestFleetAdoptSnapshotRoundTrip(t *testing.T) {
	servers := []model.Server{srv(2, 10, 16, 50, 250, 0)}
	fl := NewFleet(servers, -1)
	if _, err := fl.Adopt(0, vm(11, 0, 9, 2, 2), 0); err != nil {
		t.Fatal(err)
	}
	got, err := RestoreFleet(servers, -1, fl.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got.adopted != 1 {
		t.Fatalf("restored Adopted() = %d, want 1", got.adopted)
	}
	p, ok := got.Resident(11)
	if !ok || p.Start != 0 || p.End() != 9 {
		t.Fatalf("restored resident = %+v (ok=%v)", p, ok)
	}
}
