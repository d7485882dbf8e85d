package online

import (
	"errors"
	"testing"

	"vmalloc/internal/model"
)

// TestFleetMigrateAccounting hand-computes the energy transfer of a
// mid-life migration: the remaining minutes are refunded at the source's
// marginal rate and charged at the target's, the source starts its idle
// countdown, and the VM's (start, end) identity is untouched.
func TestFleetMigrateAccounting(t *testing.T) {
	a := srv(1, 10, 16, 100, 200, 0) // P¹ = (200−100)/10 = 10 W/CU
	b := srv(2, 10, 16, 50, 250, 0)  // P¹ = (250−50)/10 = 20 W/CU
	fl := NewFleet([]model.Server{a, b}, 2)
	v := vm(1, 0, 9, 2, 2) // 10 minutes, 2 CPU
	if _, err := fl.Commit(0, v); err != nil {
		t.Fatal(err)
	}
	// Run cost on A: 10 W/CU · 2 CPU · 10 min = 200.
	if got := fl.EnergyAt(0).Run; got != 200 {
		t.Fatalf("run after commit = %g, want 200", got)
	}

	fl.AdvanceTo(5)
	from, handoff, err := fl.Migrate(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if from.Server != 0 || handoff != 6 {
		t.Fatalf("Migrate returned from server %d handoff %d, want 0 and 6", from.Server, handoff)
	}
	p, ok := fl.Resident(1)
	if !ok || p.Server != 1 || p.Start != 0 || p.End() != 9 {
		t.Fatalf("resident after migrate = %+v (ok=%v), want server 1 with (0, 9) identity", p, ok)
	}
	// Remaining 4 minutes move from 10 W/CU to 20 W/CU:
	// 200 − 10·2·4 + 20·2·4 = 280.
	if got := fl.energy.Run; got != 280 {
		t.Fatalf("run after migrate = %g, want 280", got)
	}
	if fl.Migrated() != 1 {
		t.Fatalf("Migrated() = %d, want 1", fl.Migrated())
	}
	if got := fl.View().Running(0); got != 0 {
		t.Fatalf("source still counts %d VMs", got)
	}
	if got := fl.View().Running(1); got != 1 {
		t.Fatalf("target counts %d VMs, want 1", got)
	}

	// The consumed stub [0, 5] on the source is reclaimed at minute 6; the
	// source must then fit a full-capacity VM again.
	fl.AdvanceTo(6)
	if !fits(fl.View(), 0, vm(99, 6, 10, 10, 16), 6) {
		t.Fatal("source capacity not reclaimed after migration handoff")
	}

	// Drain: stale source departure at 10 must be a no-op; the target
	// departure removes the VM. Idle: A active [0, idle check at 5+2=7] →
	// 100·7; B active since 5 (zero transition time), empties at 10,
	// sleeps at 12 → 50·7.
	fl.Drain()
	if _, ok := fl.Resident(1); ok {
		t.Fatal("vm still resident after drain")
	}
	if got := fl.View().Running(0); got != 0 {
		t.Fatalf("source vms = %d after drain, want 0", got)
	}
	if got := fl.View().Running(1); got != 0 {
		t.Fatalf("target vms = %d after drain, want 0", got)
	}
	e := fl.EnergyAt(fl.Now())
	if e.Run != 280 || e.Transition != 0 {
		t.Fatalf("energy after drain = %+v, want run 280, transition 0", e)
	}
	if want := 100.0*7 + 50.0*7; e.Idle != want {
		t.Fatalf("idle after drain = %g, want %g", e.Idle, want)
	}
}

// TestFleetMigrateBeforeStart moves a VM that has not started yet: the
// whole reservation transfers, the handoff is the VM's own start, and the
// source keeps no stub.
func TestFleetMigrateBeforeStart(t *testing.T) {
	a := srv(1, 10, 16, 100, 200, 0)
	b := srv(2, 10, 16, 50, 250, 0)
	fl := NewFleet([]model.Server{a, b}, -1)
	v := vm(2, 5, 14, 2, 2) // starts at 5; committed at t=0
	if _, err := fl.Commit(0, v); err != nil {
		t.Fatal(err)
	}
	fl.AdvanceTo(2)
	from, handoff, err := fl.Migrate(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if from.Server != 0 || handoff != 5 {
		t.Fatalf("from server %d handoff %d, want 0 and 5", from.Server, handoff)
	}
	// Full 10-minute run cost re-priced: 10·2·10 → 20·2·10.
	if got := fl.energy.Run; got != 400 {
		t.Fatalf("run = %g, want 400", got)
	}
	// No stub: the source fits a full-capacity VM over the old interval.
	if !fits(fl.View(), 0, vm(99, 5, 14, 10, 16), 5) {
		t.Fatal("source kept a reservation for the not-yet-started migrant")
	}
	p, _ := fl.Resident(2)
	if p.Server != 1 || p.Start != 5 {
		t.Fatalf("resident = %+v, want server 1, start 5", p)
	}
}

// TestFleetMigrateInfeasible enumerates the refusal cases and checks each
// leaves the fleet untouched.
func TestFleetMigrateInfeasible(t *testing.T) {
	a := srv(1, 10, 16, 100, 200, 0)
	b := srv(2, 10, 16, 100, 200, 0)
	slow := srv(3, 10, 16, 100, 200, 30) // 30-minute wake
	fl := NewFleet([]model.Server{a, b, slow}, -1)
	if _, err := fl.Commit(0, vm(1, 0, 9, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Commit(1, vm(2, 0, 19, 9, 15)); err != nil {
		t.Fatal(err)
	}
	fl.AdvanceTo(3)
	runBefore := fl.energy.Run

	var me *MigrateError
	// Not resident: a plain error, not a MigrateError.
	if _, _, err := fl.Migrate(42, 1); err == nil || errors.As(err, &me) {
		t.Fatalf("migrating a non-resident: err = %v, want plain error", err)
	}
	// Already hosted on the target.
	if _, _, err := fl.Migrate(1, 0); !errors.As(err, &me) {
		t.Fatalf("same-server migrate: err = %v, want MigrateError", err)
	}
	// Target lacks capacity over the remaining interval.
	if _, _, err := fl.Migrate(1, 1); !errors.As(err, &me) {
		t.Fatalf("full target: err = %v, want MigrateError", err)
	}
	// Sleeping target that cannot wake before the handoff minute.
	if _, _, err := fl.Migrate(1, 2); !errors.As(err, &me) {
		t.Fatalf("slow-waking target: err = %v, want MigrateError", err)
	}
	// No remaining minutes: the VM ends at the current minute.
	fl.AdvanceTo(9)
	if _, _, err := fl.Migrate(1, 1); !errors.As(err, &me) {
		t.Fatalf("migrate at end minute: err = %v, want MigrateError", err)
	}

	if fl.energy.Run != runBefore || fl.Migrated() != 0 {
		t.Fatal("refused migration mutated the fleet")
	}
	if p, _ := fl.Resident(1); p.Server != 0 {
		t.Fatal("refused migration moved the vm")
	}
}

// TestFleetMigrateWakesTarget: a sleeping target with a zero transition
// time is woken by the migration, charging its transition cost, exactly as
// Commit would.
func TestFleetMigrateWakesTarget(t *testing.T) {
	a := srv(1, 10, 16, 100, 200, 0)
	b := srv(2, 10, 16, 100, 300, 0) // α = 300·0 = 0, but still counts a transition
	fl := NewFleet([]model.Server{a, b}, -1)
	if _, err := fl.Commit(0, vm(1, 0, 9, 2, 2)); err != nil {
		t.Fatal(err)
	}
	fl.AdvanceTo(4)
	if _, _, err := fl.Migrate(1, 1); err != nil {
		t.Fatal(err)
	}
	if fl.View().StateOf(1) != Waking && fl.View().StateOf(1) != Active {
		t.Fatalf("target state = %v after migrate, want waking/active", fl.View().StateOf(1))
	}
	if got := fl.Transitions(); got != 2 {
		t.Fatalf("transitions = %d, want 2 (one per wake)", got)
	}
	fl.AdvanceTo(5)
	if fl.View().StateOf(1) != Active {
		t.Fatalf("target did not complete its wake: %v", fl.View().StateOf(1))
	}
}

// TestFleetMigrateReadmissionAlias is the migrate-path mirror of the PR 2
// departure-identity fix: after a VM is migrated, released and its ID
// re-admitted, neither the migration's source-side cleanup nor the old
// incarnation's departure events may touch the new resident.
func TestFleetMigrateReadmissionAlias(t *testing.T) {
	a := srv(1, 10, 16, 100, 200, 0)
	b := srv(2, 10, 16, 100, 200, 0)
	fl := NewFleet([]model.Server{a, b}, -1)
	if _, err := fl.Commit(0, vm(7, 0, 9, 2, 2)); err != nil {
		t.Fatal(err)
	}
	fl.AdvanceTo(3)
	// Migrate A→B at t=3: leaves a consumed stub [0,3] on A with a cleanup
	// scheduled for t=4, and a departure for (B, vm 7, t=10).
	if _, _, err := fl.Migrate(7, 1); err != nil {
		t.Fatal(err)
	}
	// Release the migrant and re-admit the same ID on A with a new end.
	if _, err := fl.Release(7); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Commit(0, vm(7, 3, 20, 2, 2)); err != nil {
		t.Fatal(err)
	}

	// t=4: the migration's cleanup on A fires. It must not remove the new
	// incarnation's reservation (same ledger key).
	fl.AdvanceTo(4)
	if fits(fl.View(), 0, vm(99, 4, 10, 10, 16), 4) {
		t.Fatal("migration cleanup removed the re-admitted vm's reservation")
	}

	// t=10: both stale departures fire — (A, end 9) from the original
	// admission and (B, end 9) from the migration. Neither matches the new
	// incarnation (wrong end, wrong server).
	fl.AdvanceTo(10)
	if p, ok := fl.Resident(7); !ok || p.Server != 0 || p.End() != 20 {
		t.Fatalf("stale departure evicted the re-admitted vm: %+v (ok=%v)", p, ok)
	}
	if got := fl.View().Running(0); got != 1 {
		t.Fatalf("server A vms = %d, want 1", got)
	}

	// The new incarnation departs on schedule.
	fl.AdvanceTo(21)
	if _, ok := fl.Resident(7); ok {
		t.Fatal("re-admitted vm did not depart at its own end")
	}
	if got := fl.View().Running(0); got != 0 {
		t.Fatalf("server A vms = %d after departure, want 0", got)
	}
}

// TestFleetMigrateSnapshotRoundTrip: the migrated counter and the moved
// placement survive Snapshot/RestoreFleet.
func TestFleetMigrateSnapshotRoundTrip(t *testing.T) {
	a := srv(1, 10, 16, 100, 200, 0)
	b := srv(2, 10, 16, 100, 200, 0)
	fl := NewFleet([]model.Server{a, b}, 5)
	if _, err := fl.Commit(0, vm(1, 0, 9, 2, 2)); err != nil {
		t.Fatal(err)
	}
	fl.AdvanceTo(4)
	if _, _, err := fl.Migrate(1, 1); err != nil {
		t.Fatal(err)
	}
	snap := fl.Snapshot()
	re, err := RestoreFleet([]model.Server{a, b}, 5, snap)
	if err != nil {
		t.Fatal(err)
	}
	if re.Migrated() != 1 {
		t.Fatalf("restored Migrated() = %d, want 1", re.Migrated())
	}
	p, ok := re.Resident(1)
	if !ok || p.Server != 1 || p.Start != 0 {
		t.Fatalf("restored resident = %+v (ok=%v), want server 1 start 0", p, ok)
	}
	// The restored departure still fires on the new server.
	re.AdvanceTo(10)
	if _, ok := re.Resident(1); ok {
		t.Fatal("restored migrant did not depart")
	}
}
