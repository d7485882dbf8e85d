package timeline

import (
	"cmp"
	"slices"
	"sort"
)

// Reservation is one live resource claim in a Ledger: a CPU/memory amount
// held over a closed time interval.
type Reservation struct {
	Interval Interval
	CPU      float64
	Mem      float64
}

// Summary is a ledger's O(1) interval summary — what the fleet copies into
// a server's row so that most feasibility questions never reach the
// ledger. All fields describe the compiled step function of total usage
// over time.
type Summary struct {
	// PeakCPU and PeakMem are the maximum total usage at any minute
	// (computed independently; they may peak at different minutes).
	PeakCPU float64
	PeakMem float64
	// MinCPU and MinMem are the minimum total usage at any minute of the
	// busy span [Start, End]. Gaps between reservations count as zero
	// usage, so a ledger with a hole in its schedule reports a min of 0.
	MinCPU float64
	MinMem float64
	// Start and End bound the busy span: the first and last minute any
	// reservation covers. An empty ledger has End < Start.
	Start int
	End   int
	// CPUPeakFrom..CPUPeakTo and MemPeakFrom..MemPeakTo are the first
	// segment of the step function at which PeakCPU, respectively PeakMem,
	// is attained: a window that touches those minutes has exactly that
	// peak as its maximum.
	CPUPeakFrom, CPUPeakTo int
	MemPeakFrom, MemPeakTo int
}

// mark is one compiled step-function boundary: the usage delta taking
// effect at minute t. Marks are kept in compareMarks order, a strict total
// order (an ID has one start and one end mark), so the float accumulation
// below is byte-reproducible whatever order the mutations came in.
type mark struct {
	t   int
	id  int
	end bool
	cpu float64
	mem float64
}

// compareMarks orders marks by (t, start-before-end, id).
func compareMarks(a, b mark) int {
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
}

// Ledger tracks the live reservations of one server, keyed by VM ID, and
// answers window-maximum queries from a compiled step function of total
// usage that is rebuilt eagerly on every mutation.
//
// Unlike the horizon-bound SliceProfile, a Ledger has no planning
// horizon: intervals may start and end at any positive minute, which is
// what a long-running allocation service needs. A mutation is two binary
// searches, a memmove and one linear pass over the kept-sorted marks: O(k)
// in live reservations, no sort. MaxUsage is a zero-allocation binary
// search plus a walk of the overlapped segments, and Summary is O(1) — the
// fleet copies it into the server's row after each mutation and answers
// most feasibility questions from there, without touching the segments.
//
// Concurrency: MaxUsage, Summary, Get and Len are pure reads and safe
// for concurrent use; Add, Remove and Truncate must not run concurrently
// with them.
//
// The zero value is not ready for use; call NewLedger.
type Ledger struct {
	entries map[int]Reservation

	// Compiled step function. Segment s covers minutes
	// [times[s], times[s+1]-1] with total usage (cpu[s], mem[s]);
	// len(times) == len(cpu)+1 when non-empty. Usage outside
	// [times[0], times[m]-1] is zero.
	times []int
	cpu   []float64
	mem   []float64
	sum   Summary

	marks []mark // two per entry, in compareMarks order
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	l := &Ledger{entries: make(map[int]Reservation)}
	l.rebuild()
	return l
}

// Len returns the number of live reservations.
func (l *Ledger) Len() int { return len(l.entries) }

// Add records a reservation under the given ID, replacing any existing
// reservation with that ID.
func (l *Ledger) Add(id int, r Reservation) {
	if old, ok := l.entries[id]; ok {
		l.editMarks(id, old, false)
	}
	l.entries[id] = r
	l.editMarks(id, r, true)
	l.rebuild()
}

// Get returns the reservation with the given ID.
func (l *Ledger) Get(id int) (Reservation, bool) {
	r, ok := l.entries[id]
	return r, ok
}

// Remove deletes the reservation with the given ID, returning it and
// whether it existed.
func (l *Ledger) Remove(id int) (Reservation, bool) {
	r, ok := l.entries[id]
	if ok {
		delete(l.entries, id)
		l.editMarks(id, r, false)
		l.rebuild()
	}
	return r, ok
}

// Truncate shortens the reservation with the given ID to end at newEnd.
// If newEnd precedes the reservation's start the reservation is removed
// entirely. It returns the original reservation and whether it existed.
func (l *Ledger) Truncate(id, newEnd int) (Reservation, bool) {
	r, ok := l.entries[id]
	if !ok {
		return Reservation{}, false
	}
	if newEnd < r.Interval.Start {
		return l.Remove(id)
	}
	if newEnd < r.Interval.End {
		shrunk := r
		shrunk.Interval.End = newEnd
		l.Add(id, shrunk)
	}
	return r, true
}

// editMarks inserts, or deletes, r's marks at their compareMarks positions:
// a start mark at its first minute, an end mark the minute after its last.
func (l *Ledger) editMarks(id int, r Reservation, insert bool) {
	for _, m := range [2]mark{
		{t: r.Interval.Start, id: id, cpu: r.CPU, mem: r.Mem},
		{t: r.Interval.End + 1, id: id, end: true, cpu: -r.CPU, mem: -r.Mem},
	} {
		i, _ := slices.BinarySearchFunc(l.marks, m, compareMarks)
		if insert {
			l.marks = slices.Insert(l.marks, i, m)
		} else {
			l.marks = slices.Delete(l.marks, i, i+1)
		}
	}
}

// Summary returns the ledger's current interval summary. O(1).
func (l *Ledger) Summary() Summary { return l.sum }

// MaxUsage returns the maximum total CPU and memory reserved at any single
// minute of the closed window [start, end]. The two maxima are computed
// independently (they may occur at different minutes), matching the
// per-resource feasibility constraints (Eq. 9–10). It allocates
// nothing: the answer is read off the compiled step function.
func (l *Ledger) MaxUsage(start, end int) (cpu, mem float64) {
	m := len(l.cpu)
	if m == 0 || end < l.times[0] || start >= l.times[m] {
		return 0, 0
	}
	if start <= l.times[0] && end >= l.times[m]-1 {
		// The window covers the whole busy span: the answer is the peak.
		return l.sum.PeakCPU, l.sum.PeakMem
	}
	// First segment overlapping the window: the last s with times[s] ≤
	// start, clamped to 0 when the window starts before the span.
	s := sort.SearchInts(l.times, start+1) - 1
	if s < 0 {
		s = 0
	}
	for ; s < m && l.times[s] <= end; s++ {
		if l.cpu[s] > cpu {
			cpu = l.cpu[s]
		}
		if l.mem[s] > mem {
			mem = l.mem[s]
		}
	}
	return cpu, mem
}

// rebuild recompiles the step function and summary from the marks, which
// are already in compareMarks order: one pass accumulates the segments,
// a second reads the summary off them.
func (l *Ledger) rebuild() {
	l.times = l.times[:0]
	l.cpu = l.cpu[:0]
	l.mem = l.mem[:0]
	l.sum = Summary{End: -1}
	if len(l.marks) == 0 {
		return
	}
	marks := l.marks
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
}
