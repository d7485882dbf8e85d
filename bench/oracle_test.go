package main

import (
	"strings"
	"testing"

	"vmalloc"
	"vmalloc/internal/api"
)

// testFleet is two small servers on one shard and one on a second.
func testFleet() [][]vmalloc.Server {
	srv := func(id int) vmalloc.Server {
		return vmalloc.Server{ID: id, Capacity: vmalloc.Resources{CPU: 8, Mem: 16}, PIdle: 50, PPeak: 100}
	}
	return [][]vmalloc.Server{{srv(1), srv(2)}, {srv(3)}}
}

// admitOK acknowledges one VM on the given server over [start, end].
func admitOK(t *testing.T, l *ledger, id, server, start, end int, cpu, mem float64) {
	t.Helper()
	req := api.AdmitRequest{ID: id, Demand: vmalloc.Resources{CPU: cpu, Mem: mem}, Start: start, DurationMinutes: end - start + 1}
	l.noteSent([]api.AdmitRequest{req})
	n := l.noteAdmit([]api.AdmitRequest{req},
		[]api.AdmitResponse{{ID: id, Accepted: true, Server: server, Start: start, End: end}}, reply{status: 200})
	if n != 1 || l.failed != 0 {
		t.Fatalf("planting vm %d failed: accepted=%d problems=%v", id, n, l.problems)
	}
}

func wantViolation(t *testing.T, got []string, fragment string) {
	t.Helper()
	for _, g := range got {
		if strings.Contains(g, fragment) {
			return
		}
	}
	t.Fatalf("no violation mentions %q; got %v", fragment, got)
}

func TestCleanRunHasNoViolations(t *testing.T) {
	l := newLedger(testFleet())
	admitOK(t, l, 1, 1, 1, 10, 4, 8)
	admitOK(t, l, 2, 1, 1, 10, 4, 8) // fills server 1 exactly
	admitOK(t, l, 3, 3, 5, 6, 8, 16)
	view := &stateView{now: 5, residents: []residentObs{{id: 1, server: 0}, {id: 2, server: 0}, {id: 3, shard: 1, server: 0}}}
	if bad := l.checkSnapshot(view, l.mustBeResident(5)); len(bad) != 0 {
		t.Fatalf("clean snapshot flagged: %v", bad)
	}
	if bad := l.checkCapacity(); len(bad) != 0 {
		t.Fatalf("exactly-full server flagged: %v", bad)
	}
}

func TestDoubleResidencyIsCaught(t *testing.T) {
	l := newLedger(testFleet())
	admitOK(t, l, 7, 1, 1, 10, 1, 1)
	// The same VM shows up on its own server and on another shard's.
	view := &stateView{now: 2, residents: []residentObs{{id: 7, server: 0}, {id: 7, shard: 1, server: 0}}}
	wantViolation(t, l.checkSnapshot(view, l.mustBeResident(2)), "double residency: vm 7")
}

func TestWrongServerAndPhantomAreCaught(t *testing.T) {
	l := newLedger(testFleet())
	admitOK(t, l, 7, 1, 1, 10, 1, 1)
	view := &stateView{now: 2, residents: []residentObs{{id: 7, server: 1}, {id: 99, server: 0}}}
	bad := l.checkSnapshot(view, l.mustBeResident(2))
	wantViolation(t, bad, "vm 7 acknowledged on shard 0 server #0 but resident on shard 0 server #1")
	wantViolation(t, bad, "phantom resident: vm 99")
}

func TestOneMinuteCapacityOverflowIsCaught(t *testing.T) {
	l := newLedger(testFleet())
	admitOK(t, l, 1, 2, 1, 5, 6, 4)
	admitOK(t, l, 2, 2, 5, 9, 6, 4) // overlaps vm 1 at minute 5 only: 12 CPU on an 8-CPU server
	wantViolation(t, l.checkCapacity(), "capacity overflow: server 2")

	// The same pair is fine once an acknowledged release ends vm 1 a minute
	// earlier.
	l = newLedger(testFleet())
	admitOK(t, l, 1, 2, 1, 5, 6, 4)
	admitOK(t, l, 2, 2, 5, 9, 6, 4)
	l.beginRelease(1)
	l.noteRelease(1, 4, reply{status: 200})
	if bad := l.checkCapacity(); len(bad) != 0 {
		t.Fatalf("released VM still counted: %v", bad)
	}
}

func TestMemoryOverflowIsCaught(t *testing.T) {
	l := newLedger(testFleet())
	admitOK(t, l, 1, 3, 1, 3, 1, 10)
	admitOK(t, l, 2, 3, 3, 4, 1, 10)
	wantViolation(t, l.checkCapacity(), "capacity overflow: server 3")
}

func TestLostAcknowledgedWriteIsCaught(t *testing.T) {
	l := newLedger(testFleet())
	admitOK(t, l, 1, 1, 1, 10, 1, 1)
	admitOK(t, l, 2, 1, 1, 3, 1, 1)
	// After a restart at minute 5 vm 1 must still be there; vm 2 has ended.
	must := l.mustBeResident(5)
	if !must[1] || must[2] {
		t.Fatalf("must-be-resident set is %v, want only vm 1", must)
	}
	wantViolation(t, l.checkSnapshot(&stateView{now: 5}, must), "lost acknowledged write: vm 1")

	// A release in flight excuses the VM from the set.
	l.beginRelease(1)
	if len(l.mustBeResident(5)) != 0 {
		t.Fatal("a VM with a release in flight must not be required")
	}
}

func TestCountsMismatchIsCaught(t *testing.T) {
	l := newLedger(testFleet())
	admitOK(t, l, 1, 1, 1, 10, 1, 1)
	wantViolation(t, l.checkCounts(&stateView{admitted: 2}), "state counts 2 admissions, 1 were acknowledged")
}

func TestTypedRefusalCountsAsFailed(t *testing.T) {
	l := newLedger(testFleet())
	reqs := []api.AdmitRequest{
		{ID: 1, Demand: vmalloc.Resources{CPU: 1, Mem: 1}, Start: 1, DurationMinutes: 2},
		{ID: 2, Demand: vmalloc.Resources{CPU: 64, Mem: 1}, Start: 1, DurationMinutes: 2},
	}
	l.noteSent(reqs)
	n := l.noteAdmit(reqs, []api.AdmitResponse{
		{ID: 1, Accepted: true, Server: 1, Start: 1, End: 2},
		{ID: 2, Accepted: false, Reason: "online: no server can host vm 2"},
	}, reply{status: 200})
	if n != 1 || l.attempted != 2 || l.failed != 1 {
		t.Fatalf("accepted=%d attempted=%d failed=%d, want 1 2 1", n, l.attempted, l.failed)
	}
	res := &result{attempted: l.attempted, failed: l.failed}
	if res.correct() {
		t.Fatal("a run with a refusal must not be correct")
	}
	if !strings.Contains(res.jsonLine(), `"failed":1`) {
		t.Fatalf("result line does not carry the failure: %s", res.jsonLine())
	}
}

func TestFailedCallFailsEveryVMItCarried(t *testing.T) {
	l := newLedger(testFleet())
	reqs := make([]api.AdmitRequest, 5)
	l.noteAdmit(reqs, nil, reply{status: 503, body: []byte(`{"code":"overloaded","error":"closing"}`)})
	if l.attempted != 5 || l.failed != 5 {
		t.Fatalf("attempted=%d failed=%d, want 5 5", l.attempted, l.failed)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	if got := covered(tAt(0), tAt(100), nil); got != 0 {
		t.Fatalf("no children cover %v", got)
	}
	parts := []interval{{tAt(10), tAt(40)}, {tAt(30), tAt(50)}, {tAt(90), tAt(120)}}
	if got := covered(tAt(0), tAt(100), parts); got != 50 {
		t.Fatalf("covered = %v, want 40ns (10..50) + 10ns (90..100)", got)
	}
}
