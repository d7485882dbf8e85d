// Package online is an event-driven extension of the paper's model. The
// offline formulation (§II) assumes transitions can be scheduled
// clairvoyantly: a server is active exactly when its placement needs it,
// and an idle gap is bridged iff P_idle·gap < α, decided with full
// knowledge of the future.
//
// This package drops that assumption and simulates the fleet as a
// discrete-event system: servers are explicit state machines
// (power-saving → waking → active → power-saving), waking takes the
// server's real transition time during which it cannot host VMs, and a
// server decides to sleep using only the past — an idle-timeout policy —
// rather than the future. VMs placed on a sleeping server wait for it to
// wake, which surfaces a metric the offline model cannot express: start
// delay.
//
// The fleet state machine itself is the exported Fleet type, which is
// externally clocked and also powers the live allocation service in
// internal/cluster; Engine.Run is a replay loop over it. Comparing the
// event-driven energy against the offline evaluator on the same
// placements quantifies how much of the paper's savings survives without
// clairvoyance (experiment "online" in internal/experiments).
package online

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"vmalloc/internal/energy"
	"vmalloc/internal/model"
	"vmalloc/internal/timeline"
)

// State is a server's power state.
type State int

// Server power states.
const (
	PowerSaving State = iota + 1
	Waking
	Active
)

func (s State) String() string {
	switch s {
	case PowerSaving:
		return "power-saving"
	case Waking:
		return "waking"
	case Active:
		return "active"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Policy chooses a server for each VM at its arrival instant, seeing only
// the current fleet state (plus the end times of already-admitted VMs,
// which the paper's request model reveals on arrival).
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Place returns the index of the chosen server, or an error if no
	// server can host the VM.
	Place(f *FleetView, v model.VM) (int, error)
}

// FleetView is the policy-visible state of the fleet: one contiguous row
// per server holding exactly what a placement decision reads, so a
// policy's scan is a sequential walk of the table that follows a
// server's *Ledger pointer only when its row cannot decide.
//
// The query methods are reads of the fleet, but not pure: a policy counts
// its probes into the view (ScanCounts), and a scan first brings the rows
// of mutated ledgers up to date (compile), so one view serves one
// placement at a time.
type FleetView struct {
	rows    []row
	units   []unit
	classes []priceClass
	now     int
	scan    ScanCounts
	// dirty lists, each once (unit.dirty), the rows whose sum may lag
	// their ledger; the scan's hot rows carry no flag.
	dirty []int
}

// priceClass is one P¹ shared by a run of rows. classes ascend in P¹, and
// their rows slices partition one permutation of the row indexes, each
// ascending; minCostPass walks them in that order.
type priceClass struct {
	p1   float64
	rows []int
}

// row is the hot part of one server's state (152 bytes). The static
// fields are written once by NewFleet; sum is refreshed from the ledger
// by compile and compileRow, before a probe reads it; wakeDone, state and
// vms are written where the fleet changes them, and live nowhere else.
type row struct {
	capCPU, capMem   float64
	sum              timeline.Summary // the ledger's summary, as of the row's last compile
	p1, alpha, pIdle float64          // UnitCPUPower (Eq. 2), TransitionCost, PIdle
	wake             int              // ceil(TransitionTime): minutes a wake-up takes
	wakeDone         int              // valid when state == Waking
	state            State
	vms              int // committed VMs (running or waiting on wake)
}

// unit is the cold part: what mutations and reports read, scans never.
type unit struct {
	srv   model.Server
	res   *timeline.Ledger
	dirty bool // listed in FleetView.dirty

	activeSince int // valid when the row's state is Active or Waking (wake start)
	idleSince   int // last time vms dropped to 0 while Active
	idleEnergy  float64
	transitions int
	used        bool
}

func newFleetView(servers []model.Server) FleetView {
	f := FleetView{rows: make([]row, len(servers)), units: make([]unit, len(servers)), dirty: make([]int, 0, len(servers))}
	for i, s := range servers {
		l := timeline.NewLedger()
		f.units[i] = unit{srv: s, res: l}
		f.rows[i] = row{
			capCPU: s.Capacity.CPU, capMem: s.Capacity.Mem,
			sum: l.Summary(),
			p1:  s.UnitCPUPower(), alpha: s.TransitionCost(), pIdle: s.PIdle,
			wake:  int(math.Ceil(s.TransitionTime)),
			state: PowerSaving,
		}
	}
	order := make([]int, len(servers))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(f.rows[a].p1, f.rows[b].p1) })
	for from := 0; from < len(order); {
		p1, to := f.rows[order[from]].p1, from+1
		for to < len(order) && f.rows[order[to]].p1 == p1 {
			to++
		}
		f.classes = append(f.classes, priceClass{p1: p1, rows: order[from:to]})
		from = to
	}
	return f
}

// add, truncate and remove are the fleet's only ledger mutations: each
// lists the row as dirty, and the ledger compiles at the next read.
func (f *FleetView) add(i, id int, r timeline.Reservation) {
	f.units[i].res.Add(id, r)
	f.touch(i)
}

// truncate also reports whether a shrunk entry was kept (the VM had
// started), which the caller must schedule for cleanup.
func (f *FleetView) truncate(i, id, newEnd int) (kept bool) {
	r, ok := f.units[i].res.Truncate(id, newEnd)
	f.touch(i)
	return ok && newEnd >= r.Interval.Start
}

func (f *FleetView) remove(i, id int) {
	f.units[i].res.Remove(id)
	f.touch(i)
}

func (f *FleetView) touch(i int) {
	if u := &f.units[i]; !u.dirty {
		u.dirty = true
		f.dirty = append(f.dirty, i)
	}
}

// compile refreshes every dirty row's sum from its ledger: what a policy
// scan runs at its entry, so its loop has no staleness test.
func (f *FleetView) compile() {
	for _, i := range f.dirty {
		f.rows[i].sum = f.units[i].res.Summary()
		f.units[i].dirty = false
	}
	f.dirty = f.dirty[:0]
}

// compileRow refreshes row i alone, for the probe Commit, Migrate and
// Adopt run on their own server. The row stays listed.
func (f *FleetView) compileRow(i int) {
	if f.units[i].dirty {
		f.rows[i].sum = f.units[i].res.Summary()
	}
}

// ScanCounts totals what the policies' passes did over a view: rows
// evaluated (Evaluated; minCostPass counts every row of the view), rows
// minCostPass left unprobed because their run cost could not win
// (Bounded), and of the probed rows the infeasible ones and those the row
// alone rejected (see probe) without the exact window check.
type ScanCounts struct {
	Evaluated, Bounded, Infeasible, RowRejected uint64
}

// ScanCounts returns the running totals since the fleet was built.
func (f *FleetView) ScanCounts() ScanCounts { return f.scan }

// NumServers returns the fleet size.
func (f *FleetView) NumServers() int { return len(f.rows) }

// Server returns server index i's static description.
func (f *FleetView) Server(i int) model.Server { return f.units[i].srv }

// StateOf returns server index i's current power state.
func (f *FleetView) StateOf(i int) State { return f.rows[i].state }

// Running returns the number of VMs currently committed to server i
// (running or queued behind its wake-up).
func (f *FleetView) Running(i int) int { return f.rows[i].vms }

// probe is the one feasibility check — behind every policy candidate and
// every Commit, Migrate and Adopt: does a cpu/mem demand fit server i over
// [start, end]. The row answers when it can — byRow — and every
// shortcut returns what the exact check would (IEEE addition is monotone,
// and a window's maximum is one of the step function's segment values):
//   - the demand exceeds the capacity outright: no;
//   - even the all-time peak leaves room: yes, a window maximum never
//     exceeds it;
//   - the window touches the busy span, so one of its minutes carries at
//     least the span's minimum usage, and min+demand already overflows:
//     no;
//   - the window touches the minutes at which the resource that failed
//     the peak test peaks, so its maximum is that peak: no. On a fleet
//     whose VMs start about now this is nearly every full server — usage
//     only falls from here on, so the peak sits at the window's start.
//
// Otherwise the ledger's window maximum decides. Row i must be current:
// its caller ran compile or compileRow(i) since the last mutation.
func (f *FleetView) probe(i int, cpu, mem float64, start, end int) (ok, byRow bool) {
	r := &f.rows[i]
	if !(cpu <= r.capCPU && mem <= r.capMem) {
		return false, true
	}
	s := &r.sum
	cpuOver, memOver := s.PeakCPU+cpu > r.capCPU, s.PeakMem+mem > r.capMem
	if !cpuOver && !memOver {
		return true, true
	}
	if start <= s.End && end >= s.Start && (s.MinCPU+cpu > r.capCPU || s.MinMem+mem > r.capMem) {
		return false, true
	}
	if cpuOver && start <= s.CPUPeakTo && end >= s.CPUPeakFrom || memOver && start <= s.MemPeakTo && end >= s.MemPeakFrom {
		return false, true
	}
	c, m := f.units[i].res.MaxUsage(start, end)
	return c+cpu <= r.capCPU && m+mem <= r.capMem, false
}

// candidate is a policy's probe of server i for v at the earliest start it
// could have there, counted.
func (f *FleetView) candidate(i int, v *model.VM) bool {
	f.compile()
	start := f.rows[i].startTime(v.Start)
	ok, byRow := f.probe(i, v.Demand.CPU, v.Demand.Mem, start, start+v.Duration()-1)
	f.scan.Evaluated++
	if !ok {
		f.scan.Infeasible++
		if byRow {
			f.scan.RowRejected++
		}
	}
	return ok
}

// MaxUsage returns the peak committed CPU and memory on server i over
// [start, end] — the headroom check behind Fits, exposed for planners
// (the consolidation pass) that need the raw maxima to combine with their
// own tentative reservations.
func (f *FleetView) MaxUsage(i, start, end int) (cpu, mem float64) {
	return f.units[i].res.MaxUsage(start, end)
}

// IdleSince returns the minute server i last dropped to zero committed
// VMs while active. It is only meaningful while the server is active and
// empty (Running(i) == 0): the server sleeps once the idle timeout
// elapses from this minute.
func (f *FleetView) IdleSince(i int) int { return f.units[i].idleSince }

// StartTime returns the earliest time v could start on server i if chosen
// now: v.Start on an active server, the later of v.Start and the wake-up's
// completion on a waking one, and v.Start plus a full wake-up on a
// sleeping one — wherever the clock stands, so a future-start VM is
// charged a wake-up the server could have finished before v.Start.
func (f *FleetView) StartTime(i int, v model.VM) int {
	return f.rows[i].startTime(v.Start)
}

func (r *row) startTime(reqStart int) int {
	switch r.state {
	case Active:
		return reqStart
	case Waking:
		return max(reqStart, r.wakeDone)
	default:
		return reqStart + r.wake
	}
}

// Internal event kinds, processed in (time, kind, seq) order so departures
// free capacity before same-minute wake completions and idle checks run,
// and all of them precede same-minute arrivals (which the caller delivers
// after AdvanceTo).
const (
	evDeparture = iota + 1
	evWakeDone
	evIdleCheck
	// evCleanup reclaims the truncated ledger entry a Release leaves
	// behind once its last consumed minute has passed. It only ever
	// touches strictly-past reservations, so its order within a minute is
	// immaterial; it sorts last to keep the documented ordering above
	// untouched.
	evCleanup
)

type event struct {
	time int
	kind int
	seq  int
	srv  int
	vmID int
}

// eventQueue is a typed binary min-heap (container/heap boxes every event
// through any) in (time, kind, seq) order. The order is strict, seq being
// unique, so the pops come out in one sequence whatever the layout.
type eventQueue []event

func (q eventQueue) less(a, b int) bool {
	x, y := &q[a], &q[b]
	if x.time != y.time {
		return x.time < y.time
	}
	if x.kind != y.kind {
		return x.kind < y.kind
	}
	return x.seq < y.seq
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	for i := len(h) - 1; i > 0 && h.less(i, (i-1)/2); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
}

// pop removes and returns the first event of a non-empty queue.
func (q *eventQueue) pop() event {
	h := *q
	top, n := h[0], len(h)-1
	h[0], h = h[n], h[:n]
	*q = h
	for i, m := 0, 1; m < n; i, m = m, 2*m+1 {
		if m+1 < n && h.less(m+1, m) {
			m++
		}
		if !h.less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
	}
	return top
}

// Report is the outcome of an event-driven run.
type Report struct {
	Policy string `json:"policy"`
	// Energy uses the same three components as the offline model.
	Energy energy.Breakdown `json:"energy"`
	// Transitions counts power-saving→active wake-ups across the fleet.
	Transitions int `json:"transitions"`
	// MeanStartDelay is the average minutes VMs waited for a server
	// wake-up beyond their requested start time.
	MeanStartDelay float64 `json:"meanStartDelayMinutes"`
	// MaxStartDelay is the worst single VM wait.
	MaxStartDelay int `json:"maxStartDelayMinutes"`
	// Placement maps VM ID to server ID (for cross-checking against the
	// offline evaluator).
	Placement map[int]int `json:"placement"`
	// Starts maps VM ID to the minute the VM actually started (equal to
	// its requested start plus any wake-up delay).
	Starts map[int]int `json:"starts"`
	// ServersUsed counts servers that hosted at least one VM.
	ServersUsed int `json:"serversUsed"`
}

// ArrivalOrder returns a copy of vms sorted by start time, keeping the
// given order among same-minute arrivals (a stable sort) — the order the
// replay engine delivers them in.
func ArrivalOrder(vms []model.VM) []model.VM {
	out := make([]model.VM, len(vms))
	copy(out, vms)
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// Engine runs the event-driven simulation.
type Engine struct {
	// Policy places VMs; required.
	Policy Policy
	// IdleTimeout is the number of idle minutes after which an empty
	// active server goes to power saving. Negative means never sleep
	// (after the first wake); 0 means sleep immediately.
	IdleTimeout int
}

// Run simulates the instance under the engine's policy: a replay loop
// that feeds the instance's VMs to a live Fleet in arrival order. Delayed
// starts shift a VM's whole interval (it still runs for its full
// duration), so the simulated horizon can exceed the instance's.
func (e *Engine) Run(inst model.Instance) (*Report, error) {
	if e.Policy == nil {
		return nil, fmt.Errorf("online: no policy configured")
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	fl := NewFleet(inst.Servers, e.IdleTimeout)
	arrivals := ArrivalOrder(inst.VMs)
	rep := Report{
		Policy:    e.Policy.Name(),
		Placement: make(map[int]int, len(inst.VMs)),
		Starts:    make(map[int]int, len(inst.VMs)),
	}
	for _, v := range arrivals {
		fl.AdvanceTo(v.Start)
		i, err := e.Policy.Place(fl.View(), v)
		if err != nil {
			return nil, fmt.Errorf("online: vm %d at t=%d: %w", v.ID, v.Start, err)
		}
		start, err := fl.Commit(i, v)
		if err != nil {
			return nil, fmt.Errorf("online: policy %s: %w", e.Policy.Name(), err)
		}
		rep.Placement[v.ID] = fl.View().Server(i).ID
		rep.Starts[v.ID] = start
	}
	fl.Drain()
	rep.Energy = fl.EnergyAt(fl.Now())
	rep.Transitions = fl.Transitions()
	rep.ServersUsed = fl.ServersUsed()
	rep.MaxStartDelay = fl.MaxStartDelay()
	if len(inst.VMs) > 0 {
		rep.MeanStartDelay = float64(fl.StartDelayTotal()) / float64(len(inst.VMs))
	}
	return &rep, nil
}
