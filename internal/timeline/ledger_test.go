package timeline

import (
	"math/rand"
	"testing"
)

func TestLedgerBasics(t *testing.T) {
	l := NewLedger()
	if l.Len() != 0 {
		t.Fatalf("Len = %d, want 0", l.Len())
	}
	if cpu, mem := l.MaxUsage(1, 100); cpu != 0 || mem != 0 {
		t.Fatalf("empty MaxUsage = (%g, %g)", cpu, mem)
	}
	l.Add(1, Reservation{Interval: Interval{Start: 5, End: 10}, CPU: 2, Mem: 4})
	l.Add(2, Reservation{Interval: Interval{Start: 8, End: 20}, CPU: 3, Mem: 1})
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	// Overlap on [8,10]: cpu 5, mem 5.
	if cpu, mem := l.MaxUsage(1, 30); cpu != 5 || mem != 5 {
		t.Errorf("MaxUsage(1,30) = (%g, %g), want (5, 5)", cpu, mem)
	}
	// Window touching only VM 2's tail.
	if cpu, mem := l.MaxUsage(11, 30); cpu != 3 || mem != 1 {
		t.Errorf("MaxUsage(11,30) = (%g, %g), want (3, 1)", cpu, mem)
	}
	// Window before everything.
	if cpu, mem := l.MaxUsage(1, 4); cpu != 0 || mem != 0 {
		t.Errorf("MaxUsage(1,4) = (%g, %g), want (0, 0)", cpu, mem)
	}
	if _, ok := l.Get(1); !ok {
		t.Error("Get(1) missing")
	}
	if r, ok := l.Remove(1); !ok || r.CPU != 2 {
		t.Errorf("Remove(1) = (%+v, %v)", r, ok)
	}
	if _, ok := l.Remove(1); ok {
		t.Error("double Remove reported ok")
	}
	if cpu, _ := l.MaxUsage(1, 30); cpu != 3 {
		t.Errorf("after remove MaxUsage cpu = %g, want 3", cpu)
	}
}

func TestLedgerTruncate(t *testing.T) {
	l := NewLedger()
	l.Add(7, Reservation{Interval: Interval{Start: 10, End: 30}, CPU: 2, Mem: 2})
	// Truncate to [10, 15].
	if _, ok := l.Truncate(7, 15); !ok {
		t.Fatal("Truncate missed entry")
	}
	if cpu, _ := l.MaxUsage(16, 30); cpu != 0 {
		t.Errorf("usage after truncation point = %g, want 0", cpu)
	}
	if cpu, _ := l.MaxUsage(10, 15); cpu != 2 {
		t.Errorf("usage before truncation point = %g, want 2", cpu)
	}
	// Truncating before the start removes the reservation.
	if _, ok := l.Truncate(7, 5); !ok {
		t.Fatal("second Truncate missed entry")
	}
	if l.Len() != 0 {
		t.Errorf("Len = %d after truncate-to-nothing, want 0", l.Len())
	}
	if _, ok := l.Truncate(7, 5); ok {
		t.Error("Truncate of absent id reported ok")
	}
	// Truncating at or past the end is a no-op.
	l.Add(8, Reservation{Interval: Interval{Start: 1, End: 4}, CPU: 1, Mem: 1})
	l.Truncate(8, 9)
	if r, _ := l.Get(8); r.Interval.End != 4 {
		t.Errorf("End = %d after no-op truncate, want 4", r.Interval.End)
	}
}

// TestLedgerVsProfileOracle cross-checks window maxima against the
// SliceProfile oracle under random insert/remove/truncate traffic.
func TestLedgerVsProfileOracle(t *testing.T) {
	const horizon = 200
	rng := rand.New(rand.NewSource(11))
	l := NewLedger()
	cpu := NewSliceProfile(horizon)
	mem := NewSliceProfile(horizon)
	live := map[int]Reservation{}
	nextID := 1
	for step := 0; step < 500; step++ {
		switch op := rng.Intn(4); {
		case op <= 1 || len(live) == 0: // insert
			start := 1 + rng.Intn(horizon-20)
			r := Reservation{
				Interval: Interval{Start: start, End: start + rng.Intn(20)},
				CPU:      float64(1 + rng.Intn(8)),
				Mem:      float64(1 + rng.Intn(8)),
			}
			l.Add(nextID, r)
			live[nextID] = r
			cpu.Add(r.Interval.Start, r.Interval.End, r.CPU)
			mem.Add(r.Interval.Start, r.Interval.End, r.Mem)
			nextID++
		case op == 2: // remove a random live entry
			for id, r := range live {
				l.Remove(id)
				cpu.Add(r.Interval.Start, r.Interval.End, -r.CPU)
				mem.Add(r.Interval.Start, r.Interval.End, -r.Mem)
				delete(live, id)
				break
			}
		default: // truncate a random live entry
			for id, r := range live {
				newEnd := r.Interval.Start + rng.Intn(r.Interval.Len()+2) - 1
				l.Truncate(id, newEnd)
				if newEnd < r.Interval.Start {
					cpu.Add(r.Interval.Start, r.Interval.End, -r.CPU)
					mem.Add(r.Interval.Start, r.Interval.End, -r.Mem)
					delete(live, id)
				} else if newEnd < r.Interval.End {
					cpu.Add(newEnd+1, r.Interval.End, -r.CPU)
					mem.Add(newEnd+1, r.Interval.End, -r.Mem)
					r.Interval.End = newEnd
					live[id] = r
				}
				break
			}
		}
		qs := 1 + rng.Intn(horizon-1)
		qe := qs + rng.Intn(horizon-qs)
		gotCPU, gotMem := l.MaxUsage(qs, qe)
		if wantCPU := cpu.Max(qs, qe); gotCPU != wantCPU {
			t.Fatalf("step %d: MaxUsage cpu over [%d,%d] = %g, oracle %g", step, qs, qe, gotCPU, wantCPU)
		}
		if wantMem := mem.Max(qs, qe); gotMem != wantMem {
			t.Fatalf("step %d: MaxUsage mem over [%d,%d] = %g, oracle %g", step, qs, qe, gotMem, wantMem)
		}
	}
}

var ledgerSink Summary

// BenchmarkLedgerAddRemove is the fleet's per-admission ledger work: one
// Add and one Remove (each a rebuild) on a server holding eight VMs.
func BenchmarkLedgerAddRemove(b *testing.B) {
	l := NewLedger()
	for id := 1; id <= 8; id++ {
		l.Add(id, Reservation{Interval: Interval{Start: id, End: 20 + 3*id}, CPU: 1, Mem: 2})
	}
	r := Reservation{Interval: Interval{Start: 5, End: 30}, CPU: 2, Mem: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		l.Add(100, r)
		l.Remove(100)
	}
	ledgerSink = l.Summary()
}
