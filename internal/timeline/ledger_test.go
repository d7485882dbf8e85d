package timeline

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vmalloc/internal/model"
)

func TestLedgerBasics(t *testing.T) {
	l := NewLedger()
	if len(l.marks)/2 != 0 {
		t.Fatalf("reservations = %d, want 0", len(l.marks)/2)
	}
	if cpu, mem := l.MaxUsage(1, 100); cpu != 0 || mem != 0 {
		t.Fatalf("empty MaxUsage = (%g, %g)", cpu, mem)
	}
	l.Add(1, Reservation{Interval: Interval{Start: 5, End: 10}, CPU: 2, Mem: 4})
	l.Add(2, Reservation{Interval: Interval{Start: 8, End: 20}, CPU: 3, Mem: 1})
	if len(l.marks)/2 != 2 {
		t.Fatalf("reservations = %d, want 2", len(l.marks)/2)
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
	if len(l.marks)/2 != 0 {
		t.Errorf("reservations = %d after truncate-to-nothing, want 0", len(l.marks)/2)
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
// per-minute usage model.Usage sums from the live reservations, under
// random insert/remove/truncate traffic. Demands are integers, so every sum
// is exact and the comparison can be ==.
func TestLedgerVsProfileOracle(t *testing.T) {
	const horizon = 200
	rng := rand.New(rand.NewSource(11))
	l := NewLedger()
	live := map[int]Reservation{}
	var vms []model.VM
	var use []model.Resources
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
			nextID++
		case op == 2: // remove a random live entry
			for id := range live {
				l.Remove(id)
				delete(live, id)
				break
			}
		default: // truncate a random live entry
			for id, r := range live {
				newEnd := r.Interval.Start + rng.Intn(r.Interval.Len()+2) - 1
				l.Truncate(id, newEnd)
				if newEnd < r.Interval.Start {
					delete(live, id)
				} else if newEnd < r.Interval.End {
					r.Interval.End = newEnd
					live[id] = r
				}
				break
			}
		}
		vms = vms[:0]
		for _, r := range live {
			vms = append(vms, model.VM{Start: r.Interval.Start, End: r.Interval.End, Demand: model.Resources{CPU: r.CPU, Mem: r.Mem}})
		}
		use = model.Usage(use, vms)
		qs := 1 + rng.Intn(horizon-1)
		qe := qs + rng.Intn(horizon-qs)
		var want model.Resources
		for m := qs; m <= min(qe, len(use)-1); m++ {
			want.CPU, want.Mem = max(want.CPU, use[m].CPU), max(want.Mem, use[m].Mem)
		}
		if gotCPU, gotMem := l.MaxUsage(qs, qe); gotCPU != want.CPU || gotMem != want.Mem {
			t.Fatalf("step %d: MaxUsage over [%d,%d] = (%g, %g), oracle %v", step, qs, qe, gotCPU, gotMem, want)
		}
	}
}

// rebuildBySort is the ledger's original compile, kept as the oracle for
// TestLedgerMatchesRebuild and FuzzLedgerOps: walk the live reservations,
// emit two marks per entry, sort them in the fixed (t, end, id) order, then
// accumulate. The ledger keeps its marks in that order across mutations
// instead; both must sum the same floats in the same sequence.
func rebuildBySort(live map[int]Reservation) *Ledger {
	l := &Ledger{sum: Summary{End: -1}}
	if len(live) == 0 {
		return l
	}
	var marks []mark
	for id, r := range live {
		marks = append(marks,
			mark{t: r.Interval.Start, id: id, cpu: r.CPU, mem: r.Mem},
			mark{t: r.Interval.End + 1, id: id, end: true, cpu: -r.CPU, mem: -r.Mem},
		)
	}
	// (t, end, id) is a strict total order (an ID contributes one start
	// and one end mark), so an unstable sort yields one sequence.
	slices.SortFunc(marks, func(a, b mark) int {
		if a.t != b.t {
			return cmp.Compare(a.t, b.t)
		}
		if a.end != b.end {
			if a.end {
				return 1 // starts before ends at the same minute
			}
			return -1
		}
		return cmp.Compare(a.id, b.id)
	})
	var curCPU, curMem float64
	for i := 0; i < len(marks); {
		t := marks[i].t
		for i < len(marks) && marks[i].t == t {
			curCPU += marks[i].cpu
			curMem += marks[i].mem
			i++
		}
		l.times = append(l.times, t)
		if i < len(marks) {
			l.cpu = append(l.cpu, curCPU)
			l.mem = append(l.mem, curMem)
		}
	}
	first := true
	for s := range l.cpu {
		if first || l.cpu[s] > l.sum.PeakCPU {
			l.sum.PeakCPU = l.cpu[s]
			l.sum.CPUPeakFrom, l.sum.CPUPeakTo = l.times[s], l.times[s+1]-1
		}
		if first || l.mem[s] > l.sum.PeakMem {
			l.sum.PeakMem = l.mem[s]
			l.sum.MemPeakFrom, l.sum.MemPeakTo = l.times[s], l.times[s+1]-1
		}
		if first || l.cpu[s] < l.sum.MinCPU {
			l.sum.MinCPU = l.cpu[s]
		}
		if first || l.mem[s] < l.sum.MinMem {
			l.sum.MinMem = l.mem[s]
		}
		first = false
	}
	l.sum.Start = l.times[0]
	l.sum.End = l.times[len(l.times)-1] - 1
	return l
}

// ledgerDemands are Table I/II figures (GB and compute units). Demands past
// the table are multiples of 0.05, so neither sum is exact in float64 and a
// change in summation order shows in the last bit.
var ledgerDemands = []float64{1.7, 3.75, 7.5, 6.5, 17.1, 15, 34.2, 68.4, 0.85, 2.45}

func ledgerDemand(k int) float64 {
	if k < len(ledgerDemands) {
		return ledgerDemands[k]
	}
	return float64(k) * 0.05
}

// ledgerOp is one step of a differential op script.
type ledgerOp struct {
	kind       int // 0 Add, 1 Remove, 2 Truncate
	id         int
	start, end int // Add's interval; Truncate's new end is end
	cpu, mem   float64
}

// apply runs op on l and on live, the test's own map of the reservations
// l should hold.
func (op ledgerOp) apply(l *Ledger, live map[int]Reservation) {
	switch op.kind {
	case 0:
		r := Reservation{Interval: Interval{Start: op.start, End: op.end}, CPU: op.cpu, Mem: op.mem}
		l.Add(op.id, r)
		live[op.id] = r
	case 1:
		l.Remove(op.id)
		delete(live, op.id)
	default:
		l.Truncate(op.id, op.end)
		r, ok := live[op.id]
		switch {
		case !ok:
		case op.end < r.Interval.Start:
			delete(live, op.id)
		case op.end < r.Interval.End:
			r.Interval.End = op.end
			live[op.id] = r
		}
	}
}

// summaryBits is a Summary with every float as its bit pattern.
func summaryBits(s Summary) [10]uint64 {
	return [10]uint64{
		math.Float64bits(s.PeakCPU), math.Float64bits(s.PeakMem),
		math.Float64bits(s.MinCPU), math.Float64bits(s.MinMem),
		uint64(s.Start), uint64(s.End),
		uint64(s.CPUPeakFrom), uint64(s.CPUPeakTo), uint64(s.MemPeakFrom), uint64(s.MemPeakTo),
	}
}

// checkAgainstRebuild compiles a fresh ledger over live with
// rebuildBySort and requires what a reader of l sees to equal it bit for
// bit: Summary, MaxUsage over a window around every step of the oracle's
// function, and the step function those reads compiled. The first read
// after the op is MaxUsage on odd steps and Summary on even ones, so each
// compiles a stale ledger. The reservation count and Get of every ID up
// to maxID must answer as live does.
func checkAgainstRebuild(t *testing.T, l *Ledger, live map[int]Reservation, maxID, step int, op ledgerOp) {
	t.Helper()
	o := rebuildBySort(live)
	check := func(name string, read func(start, end int) (float64, float64), start, end int) {
		t.Helper()
		c, m := read(start, end)
		wc, wm := o.MaxUsage(start, end)
		if math.Float64bits(c) != math.Float64bits(wc) || math.Float64bits(m) != math.Float64bits(wm) {
			t.Fatalf("step %d %+v: %s(%d, %d) = (%v, %v), oracle (%v, %v)", step, op, name, start, end, c, m, wc, wm)
		}
	}
	window := func(start, end int) { t.Helper(); check("MaxUsage", l.MaxUsage, start, end) }
	// WindowMax reads first, while a mutating op has left the ledger
	// stale: it must answer from the marks and leave the compile due.
	stale := l.stale
	check("WindowMax", l.WindowMax, 0, 200)
	for _, m := range o.times {
		check("WindowMax", l.WindowMax, m-1, m+2)
		check("WindowMax", l.WindowMax, m, m+step%9)
	}
	if l.stale != stale {
		t.Fatalf("step %d %+v: WindowMax changed stale from %t", step, op, stale)
	}
	if step%2 == 1 {
		window(step%70, step%70+step%9)
	}
	if got := l.Summary(); summaryBits(got) != summaryBits(o.sum) {
		t.Fatalf("step %d %+v: summary %+v, oracle %+v", step, op, got, o.sum)
	}
	for _, m := range o.times {
		window(m-1, m+2)
	}
	if len(l.marks)/2 != len(live) {
		t.Fatalf("step %d %+v: %d reservations, want %d", step, op, len(l.marks)/2, len(live))
	}
	for id := 1; id <= maxID; id++ {
		got, ok := l.Get(id)
		want, wantOK := live[id]
		if ok != wantOK || got.Interval != want.Interval ||
			math.Float64bits(got.CPU) != math.Float64bits(want.CPU) || math.Float64bits(got.Mem) != math.Float64bits(want.Mem) {
			t.Fatalf("step %d %+v: Get(%d) = %+v, %v; want %+v, %v", step, op, id, got, ok, want, wantOK)
		}
	}
	if !slices.Equal(l.times, o.times) {
		t.Fatalf("step %d %+v: times %v, oracle %v", step, op, l.times, o.times)
	}
	if len(l.cpu) != len(o.cpu) || len(l.mem) != len(o.mem) {
		t.Fatalf("step %d %+v: %d/%d segments, oracle %d/%d", step, op, len(l.cpu), len(l.mem), len(o.cpu), len(o.mem))
	}
	for s := range o.cpu {
		if math.Float64bits(l.cpu[s]) != math.Float64bits(o.cpu[s]) || math.Float64bits(l.mem[s]) != math.Float64bits(o.mem[s]) {
			t.Fatalf("step %d %+v: segment %d at minute %d = (%v, %v), oracle (%v, %v)",
				step, op, s, o.times[s], l.cpu[s], l.mem[s], o.cpu[s], o.mem[s])
		}
	}
}

// TestLedgerMatchesRebuild drives seeded op scripts through a ledger and
// checks it against the original sort-based compile after every op. The
// scripts replace live IDs, remove absent ones, truncate inside, at, past
// the end and before the start, and use decimal demands, so an order that
// sums marks differently, or a stale mark left by a replaced ID, fails.
func TestLedgerMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, live := NewLedger(), map[int]Reservation{}
		for step := 0; step < 400; step++ {
			// Half the ops are Adds over 14 IDs: most replace a live one,
			// and Remove and Truncate often name an absent one.
			op := ledgerOp{kind: [4]int{0, 0, 1, 2}[rng.Intn(4)], id: 1 + rng.Intn(14)}
			r, held := live[op.id]
			switch {
			case op.kind == 0:
				op.start = 1 + rng.Intn(60)
				op.end = op.start + rng.Intn(25)
				op.cpu, op.mem = ledgerDemand(rng.Intn(200)), ledgerDemand(rng.Intn(200))
			case op.kind == 2 && held:
				switch rng.Intn(4) {
				case 0: // inside
					op.end = r.Interval.Start + rng.Intn(r.Interval.End-r.Interval.Start+1)
				case 1: // at the end
					op.end = r.Interval.End
				case 2: // past the end
					op.end = r.Interval.End + 1 + rng.Intn(5)
				default: // before the start
					op.end = r.Interval.Start - 1 - rng.Intn(5)
				}
			case op.kind == 2:
				op.end = rng.Intn(90)
			}
			op.apply(l, live)
			checkAgainstRebuild(t, l, live, 14, step, op)
		}
	}
}

// FuzzLedgerOps decodes bytes into an op script, five bytes an op, and
// checks the ledger against rebuildBySort after every op.
func FuzzLedgerOps(f *testing.F) {
	f.Add([]byte{0, 5, 10, 0, 1, 3, 5, 4, 2, 3, 6, 5, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{0, 1, 1, 40, 60, 3, 1, 9, 70, 80, 6, 2, 50, 0, 2, 5, 1, 30, 1, 1, 2, 1, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, live := NewLedger(), map[int]Reservation{}
		for i := 0; i+5 <= len(data); i += 5 {
			b := data[i : i+5]
			op := ledgerOp{kind: int(b[0]) % 3, id: 1 + int(b[0])/3%16}
			switch op.kind {
			case 0:
				op.start = 1 + int(b[1])%64
				op.end = op.start + int(b[2])%32
				op.cpu, op.mem = ledgerDemand(int(b[3])), ledgerDemand(int(b[4]))
			case 2:
				op.end = int(b[1]) % 100
			}
			op.apply(l, live)
			checkAgainstRebuild(t, l, live, 16, i/5, op)
		}
	})
}

var ledgerSink Summary

// BenchmarkLedgerAddRemove is the fleet's per-admission ledger work: one
// Add and one Remove on a server holding k VMs, each followed by the
// Summary read that compiles it. k = 8 is a typical server; k = 512 is
// bench/probe_timeline.go's large case, where the cost of the compile's
// pass over the marks shows.
func BenchmarkLedgerAddRemove(b *testing.B) {
	for _, k := range []int{8, 512} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			l := NewLedger()
			for id := 1; id <= k; id++ {
				l.Add(id, Reservation{Interval: Interval{Start: id, End: 20 + 3*id}, CPU: 1, Mem: 2})
			}
			r := Reservation{Interval: Interval{Start: 5, End: 30}, CPU: 2, Mem: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				l.Add(k+100, r)
				ledgerSink = l.Summary()
				l.Remove(k + 100)
				ledgerSink = l.Summary()
			}
		})
	}
}
