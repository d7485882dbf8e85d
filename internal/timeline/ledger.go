package timeline

import "sort"

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
// effect at minute t. Marks are kept in (t, start-before-end, id) order
// (see before), a strict total order (an ID has one start and one end
// mark), so the float accumulation below is byte-reproducible whatever
// order the mutations came in.
type mark struct {
	t   int
	id  int
	end bool
	cpu float64
	mem float64
}

// before reports whether a precedes b in mark order: by minute, then
// starts before ends at the same minute, then by ID.
func before(a, b mark) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.end != b.end {
		return b.end
	}
	return a.id < b.id
}

// Ledger tracks the live reservations of one server, keyed by VM ID, and
// answers window-maximum queries from a compiled step function of total
// usage, compiled on the first read after a mutation.
//
// Unlike an offline instance, a Ledger has no planning
// horizon: intervals may start and end at any positive minute, which is
// what a long-running allocation service needs. Its one store is the
// sorted marks, a start and an end mark per reservation: Get, Remove and
// a replacing Add find an ID's pair by a scan. A mutation is that scan,
// two binary searches and one memmove, and marks the step function
// stale; the next Summary or MaxUsage compiles the segments and the
// summary together in one pass over the marks: O(k) in live reservations,
// no sort, no allocation once the slices have grown. A run of mutations
// with no read between them pays for one compile. MaxUsage is then a
// zero-allocation binary search plus a walk of the overlapped segments,
// and Summary is O(1) — the fleet copies it into the server's row and
// answers most feasibility questions from there, without touching the
// segments.
//
// Concurrency: Get and Len are pure reads. Summary and MaxUsage compile
// when a mutation preceded them, so no call may run concurrently with
// any other.
//
// The zero value is not ready for use; call NewLedger.
type Ledger struct {
	marks []mark // two per reservation, in mark order

	// Compiled step function. Segment s covers minutes
	// [times[s], times[s+1]-1] with total usage (cpu[s], mem[s]);
	// len(times) == len(cpu)+1 when non-empty. Usage outside
	// [times[0], times[m]-1] is zero.
	times []int
	cpu   []float64
	mem   []float64
	sum   Summary
	stale bool // a mutation since the last compile
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{sum: Summary{End: -1}} }

// Add records a reservation under the given ID, replacing any existing
// reservation with that ID. r.Interval must hold at least one minute.
func (l *Ledger) Add(id int, r Reservation) {
	if s, e, ok := l.find(id); ok {
		l.deleteMarks(s, e)
	}
	l.insertMarks(id, r)
	l.stale = true
}

// Get returns the reservation with the given ID.
func (l *Ledger) Get(id int) (Reservation, bool) {
	s, e, ok := l.find(id)
	if !ok {
		return Reservation{}, false
	}
	return l.reservation(s, e), true
}

// Remove deletes the reservation with the given ID, returning it and
// whether it existed.
func (l *Ledger) Remove(id int) (Reservation, bool) {
	s, e, ok := l.find(id)
	if !ok {
		return Reservation{}, false
	}
	r := l.reservation(s, e)
	l.deleteMarks(s, e)
	l.stale = true
	return r, true
}

// Truncate shortens the reservation with the given ID to end at newEnd.
// If newEnd precedes the reservation's start the reservation is removed
// entirely. It returns the original reservation and whether it existed.
func (l *Ledger) Truncate(id, newEnd int) (Reservation, bool) {
	r, ok := l.Get(id)
	switch {
	case !ok || newEnd >= r.Interval.End:
	case newEnd < r.Interval.Start:
		l.Remove(id)
	default:
		shrunk := r
		shrunk.Interval.End = newEnd
		l.Add(id, shrunk)
	}
	return r, ok
}

// find returns the indices of id's start and end marks. The start mark
// is the first of the two: a reservation ends no earlier than it starts,
// and its end mark sits the minute after.
func (l *Ledger) find(id int) (s, e int, ok bool) {
	for s = range l.marks {
		if l.marks[s].id == id {
			for e = s + 1; l.marks[e].id != id; e++ {
			}
			return s, e, true
		}
	}
	return 0, 0, false
}

// reservation rebuilds the reservation whose marks are at s and e.
func (l *Ledger) reservation(s, e int) Reservation {
	m := l.marks[s]
	return Reservation{Interval: Interval{Start: m.t, End: l.marks[e].t - 1}, CPU: m.cpu, Mem: m.mem}
}

// insertMarks inserts r's marks at their places in mark order: a start
// mark at its first minute, an end mark the minute after its last.
func (l *Ledger) insertMarks(id int, r Reservation) {
	start := mark{t: r.Interval.Start, id: id, cpu: r.CPU, mem: r.Mem}
	end := mark{t: r.Interval.End + 1, id: id, end: true, cpu: -r.CPU, mem: -r.Mem}
	i, j, n := l.search(start), l.search(end), len(l.marks) // i ≤ j: start precedes end
	l.marks = append(l.marks, mark{}, mark{})
	copy(l.marks[j+2:], l.marks[j:n])
	copy(l.marks[i+1:], l.marks[i:j])
	l.marks[i], l.marks[j+1] = start, end
}

// deleteMarks deletes the marks at s and e, s < e.
func (l *Ledger) deleteMarks(s, e int) {
	copy(l.marks[s:], l.marks[s+1:e])
	copy(l.marks[e-1:], l.marks[e+1:])
	l.marks = l.marks[:len(l.marks)-2]
}

// search returns the index of the first mark not before m.
func (l *Ledger) search(m mark) int {
	lo, hi := 0, len(l.marks)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if before(l.marks[h], m) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// Summary returns the ledger's current interval summary: O(1), after
// the compile a preceding mutation left due.
func (l *Ledger) Summary() Summary {
	if l.stale {
		l.rebuild()
	}
	return l.sum
}

// MaxUsage returns the maximum total CPU and memory reserved at any single
// minute of the closed window [start, end]. The two maxima are computed
// independently (they may occur at different minutes), matching the
// per-resource feasibility constraints (Eq. 9–10). It allocates
// nothing: the answer is read off the compiled step function, compiled
// first if a mutation preceded the call.
func (l *Ledger) MaxUsage(start, end int) (cpu, mem float64) {
	if l.stale {
		l.rebuild()
	}
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

// WindowMax returns what MaxUsage(start, end) would, bit for bit, without
// compiling: a ledger mutated since its last read sums its marks in mark
// order, as rebuild does, up to the window's end. It is for a one-off
// question, where a compile would build segments and a summary nobody
// reads before the next mutation.
func (l *Ledger) WindowMax(start, end int) (cpu, mem float64) {
	if !l.stale {
		return l.MaxUsage(start, end)
	}
	marks := l.marks
	var c, m float64
	for i := 0; i < len(marks) && marks[i].t <= end; {
		for t := marks[i].t; i < len(marks) && marks[i].t == t; i++ {
			c += marks[i].cpu
			m += marks[i].mem
		}
		// The segment the marks at t open ends the minute before the
		// next mark; past the last mark usage is zero.
		if i < len(marks) && marks[i].t > start {
			if c > cpu {
				cpu = c
			}
			if m > mem {
				mem = m
			}
		}
	}
	return cpu, mem
}

// rebuild recompiles the step function and summary from the marks, which
// are already in mark order, in one pass: each segment is summed, then
// read into the summary as soon as the next minute with a mark closes it.
func (l *Ledger) rebuild() {
	l.stale = false
	l.times = l.times[:0]
	l.cpu = l.cpu[:0]
	l.mem = l.mem[:0]
	l.sum = Summary{End: -1}
	marks := l.marks
	if len(marks) == 0 {
		return
	}
	sum := Summary{Start: marks[0].t, End: marks[len(marks)-1].t - 1}
	var cpu, mem float64
	for i := 0; ; {
		t := marks[i].t
		for ; i < len(marks) && marks[i].t == t; i++ {
			cpu += marks[i].cpu
			mem += marks[i].mem
		}
		l.times = append(l.times, t)
		if i == len(marks) {
			break
		}
		last, first := marks[i].t-1, len(l.cpu) == 0
		l.cpu = append(l.cpu, cpu)
		l.mem = append(l.mem, mem)
		if first || cpu > sum.PeakCPU {
			sum.PeakCPU, sum.CPUPeakFrom, sum.CPUPeakTo = cpu, t, last
		}
		if first || mem > sum.PeakMem {
			sum.PeakMem, sum.MemPeakFrom, sum.MemPeakTo = mem, t, last
		}
		if first || cpu < sum.MinCPU {
			sum.MinCPU = cpu
		}
		if first || mem < sum.MinMem {
			sum.MinMem = mem
		}
	}
	l.sum = sum
}
