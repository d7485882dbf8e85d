package online

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"vmalloc/internal/energy"
	"vmalloc/internal/model"
	"vmalloc/internal/timeline"
)

// PlacedVM is one admitted VM with its hosting server index and actual
// start minute.
type PlacedVM = model.PlacedVM

// Fleet is a live, externally clocked fleet state machine — the mutable
// core of both the event-driven replay engine and the long-running
// allocation service. Servers follow the power-saving → waking → active
// cycle, wake-ups take the server's real transition time, and empty active
// servers sleep after the configured idle timeout, exactly as in
// Engine.Run (which is implemented on top of this type).
//
// The clock only moves forward: AdvanceTo processes every internal event
// (departures, wake-up completions, idle checks) up to the target minute.
// Callers admit VMs with Commit — at a time not before the clock — and may
// remove them early with Release, which truncates the reservation and
// refunds the run cost of the unused minutes.
//
// A Fleet is not safe for concurrent use — a policy's Place counts its
// probes into the view — so the cluster layer serialises access.
type Fleet struct {
	view        FleetView
	idleTimeout int
	events      eventQueue
	seq         int
	resident    map[int]PlacedVM

	// energy accrues the Run and Transition components; the Idle
	// component lives in per-unit idleEnergy until EnergyAt sums it.
	energy     energy.Breakdown
	totalDelay int
	maxDelay   int
	admitted   int
	released   int
	migrated   int
	adopted    int
}

// NewFleet returns an all-sleeping fleet with the clock at 0. idleTimeout
// follows Engine.IdleTimeout: minutes an empty active server waits before
// sleeping; negative means never sleep, 0 means sleep immediately.
func NewFleet(servers []model.Server, idleTimeout int) *Fleet {
	return &Fleet{
		view:        newFleetView(servers),
		idleTimeout: idleTimeout,
		events:      newEventQueue(),
		resident:    make(map[int]PlacedVM),
	}
}

// View returns the policy-visible state of the fleet.
func (fl *Fleet) View() *FleetView { return &fl.view }

// Now returns the fleet clock.
func (fl *Fleet) Now() int { return fl.view.now }

// Admitted returns the number of VMs committed over the fleet's lifetime.
func (fl *Fleet) Admitted() int { return fl.admitted }

// Released returns the number of VMs removed early via Release.
func (fl *Fleet) Released() int { return fl.released }

// Migrated returns the number of live migrations performed via Migrate.
func (fl *Fleet) Migrated() int { return fl.migrated }

// Adopted returns the number of VMs taken over from another shard via
// Adopt.
func (fl *Fleet) Adopted() int { return fl.adopted }

// StartDelayTotal returns the summed minutes admitted VMs waited for a
// wake-up beyond their requested start.
func (fl *Fleet) StartDelayTotal() int { return fl.totalDelay }

// MaxStartDelay returns the worst single VM wait.
func (fl *Fleet) MaxStartDelay() int { return fl.maxDelay }

// Transitions returns the fleet-wide count of power-saving→active
// wake-ups.
func (fl *Fleet) Transitions() int {
	var n int
	for i := range fl.view.units {
		n += fl.view.units[i].transitions
	}
	return n
}

// ServersUsed returns the number of servers that hosted at least one VM.
func (fl *Fleet) ServersUsed() int {
	var n int
	for i := range fl.view.units {
		if fl.view.units[i].used {
			n++
		}
	}
	return n
}

// Resident returns the placed VM with the given ID, if it is currently
// admitted (neither departed nor released).
func (fl *Fleet) Resident(id int) (PlacedVM, bool) {
	p, ok := fl.resident[id]
	return p, ok
}

// NumResidents returns how many VMs are currently admitted, without the
// copy and sort Residents pays.
func (fl *Fleet) NumResidents() int { return len(fl.resident) }

// Residents returns every currently admitted VM, sorted by VM ID.
func (fl *Fleet) Residents() []PlacedVM {
	out := make([]PlacedVM, 0, len(fl.resident))
	for _, p := range fl.resident {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b PlacedVM) int { return cmp.Compare(a.VM.ID, b.VM.ID) })
	return out
}

// EnergyAt returns the cumulative energy as of minute t ≥ the clock:
// accrued run and transition costs plus the idle cost of completed active
// stretches and of stretches still open at t. It is a pure read.
func (fl *Fleet) EnergyAt(t int) energy.Breakdown {
	b := fl.energy
	for i := range fl.view.units {
		u, r := &fl.view.units[i], &fl.view.rows[i]
		b.Idle += u.idleEnergy
		if r.state == Active && t > u.activeSince {
			b.Idle += r.pIdle * float64(t-u.activeSince)
		}
	}
	return b
}

// AdvanceTo moves the clock to minute t, processing every departure,
// wake-up completion and idle check scheduled at or before t in
// deterministic event order. Moving backwards is a no-op: the clock is
// monotonic.
func (fl *Fleet) AdvanceTo(t int) {
	if t <= fl.view.now {
		return
	}
	fl.drainUntil(t)
	fl.view.now = t
}

// Drain processes every remaining internal event, leaving the clock at the
// time of the last one — the replay engine's end-of-run state.
func (fl *Fleet) Drain() {
	fl.drainUntil(math.MaxInt)
}

func (fl *Fleet) drainUntil(t int) {
	for {
		ev, ok := fl.events.pop(t)
		if !ok {
			return
		}
		fl.view.now = ev.time
		fl.handle(ev)
	}
}

// Commit places v on server index i at the earliest feasible start
// (waking the server if it sleeps) and returns that start. The VM's
// requested start must not precede the clock; callers advance the clock to
// the arrival minute first. Feasibility is re-checked: a policy that
// selects a full server gets an error, never a corrupted fleet.
func (fl *Fleet) Commit(i int, v model.VM) (int, error) {
	if i < 0 || i >= len(fl.view.units) {
		return 0, fmt.Errorf("online: server index %d out of range", i)
	}
	if v.Start < fl.view.now {
		return 0, fmt.Errorf("online: vm %d starts at %d, before the fleet clock %d", v.ID, v.Start, fl.view.now)
	}
	if _, dup := fl.resident[v.ID]; dup {
		return 0, fmt.Errorf("online: vm %d is already resident", v.ID)
	}
	start := fl.view.StartTime(i, v)
	// Guard the arithmetic horizon: a VM ending at (or overflowing past)
	// MaxInt would wrap the departure event time end+1 negative and drag
	// the clock backwards when it fires.
	end := start + v.Duration() - 1
	if end < start || end == math.MaxInt {
		return 0, fmt.Errorf("online: vm %d end overflows the time horizon", v.ID)
	}
	if ok, _ := fl.view.probe(i, v.Demand.CPU, v.Demand.Mem, start, end); !ok {
		return 0, fmt.Errorf("online: vm %d does not fit server %d", v.ID, fl.view.units[i].srv.ID)
	}
	delay := start - v.Start
	fl.totalDelay += delay
	fl.maxDelay = max(fl.maxDelay, delay)
	fl.admitted++
	fl.land(i, PlacedVM{VM: v, Start: start}, start)
	return start, nil
}

// Release removes a resident VM at the current clock minute, before its
// scheduled end. The VM keeps the minutes it already consumed (through the
// current minute, if it started); the run cost of the unused remainder is
// refunded, and the reservation is truncated so the capacity frees
// immediately. Releasing the last VM of an active server starts its idle
// countdown, exactly as a natural departure would.
func (fl *Fleet) Release(id int) (PlacedVM, error) {
	p, ok := fl.resident[id]
	if !ok {
		return PlacedVM{}, fmt.Errorf("online: vm %d is not resident", id)
	}
	fl.leave(p)
	delete(fl.resident, id)
	fl.released++
	return p, nil
}

// MigrateError reports that a requested migration is infeasible on the
// current fleet state: the target cannot host the VM's remaining interval,
// or there is no remaining interval to move.
type MigrateError struct {
	VM     int
	Server int // target server ID (not index)
	Reason string
}

func (e *MigrateError) Error() string {
	return fmt.Sprintf("online: cannot migrate vm %d to server %d: %s", e.VM, e.Server, e.Reason)
}

// Migrate moves a resident VM to server index `to` at the current clock
// minute, atomically: the source keeps the minutes the VM already consumed
// (through the current minute, exactly as Release accounts them), and the
// target hosts the remainder — the handoff minute, returned to the caller,
// is the next minute for a started VM and the VM's (unchanged) start for
// one that has not started yet. The VM's (start, end) identity is
// preserved: only the hosting server changes, so a migration never delays
// or extends the VM.
//
// A move is leave on the source followed by land on the target, so run
// cost for the remaining minutes is refunded at the source's P¹ and
// charged at the target's. A sleeping target is woken exactly as Commit
// would, but only if the wake completes by the handoff minute — waking may
// never shift the start. The source's stale departure event is neutralised
// by the same identity guard that protects releases; a fresh departure is
// scheduled on the target.
//
// On success Migrate returns the VM's placement before the move and the
// handoff minute. Infeasible requests return a *MigrateError and leave the
// fleet untouched.
func (fl *Fleet) Migrate(id, to int) (PlacedVM, int, error) {
	p, ok := fl.resident[id]
	if !ok {
		return PlacedVM{}, 0, fmt.Errorf("online: vm %d is not resident", id)
	}
	if to < 0 || to >= len(fl.view.units) {
		return PlacedVM{}, 0, fmt.Errorf("online: server index %d out of range", to)
	}
	r, srvID := &fl.view.rows[to], fl.view.units[to].srv.ID
	if to == p.Server {
		return PlacedVM{}, 0, &MigrateError{VM: id, Server: srvID, Reason: "vm already hosted there"}
	}
	now := fl.view.now
	handoff, end := max(p.Start, now+1), p.End()
	if handoff > end {
		return PlacedVM{}, 0, &MigrateError{VM: id, Server: srvID, Reason: "no remaining minutes to move"}
	}
	if r.state == Waking && r.wakeDone > handoff {
		return PlacedVM{}, 0, &MigrateError{VM: id, Server: srvID,
			Reason: fmt.Sprintf("target wakes at %d, after the handoff minute %d", r.wakeDone, handoff)}
	}
	if r.state == PowerSaving && now+r.wake > handoff {
		return PlacedVM{}, 0, &MigrateError{VM: id, Server: srvID,
			Reason: fmt.Sprintf("target cannot wake before the handoff minute %d", handoff)}
	}
	if reason := fl.shortfall(to, p.VM.Demand, handoff, end); reason != "" {
		return PlacedVM{}, 0, &MigrateError{VM: id, Server: srvID, Reason: reason}
	}
	fl.leave(p)
	fl.land(to, p, handoff)
	fl.migrated++
	return p, handoff, nil
}

// AdoptError reports that an adoption is infeasible on the current fleet
// state: the VM is already resident here, the target lacks capacity, or
// the VM has no remaining minutes to host.
type AdoptError struct {
	VM     int
	Server int // target server ID (not index), -1 when no server was reached
	Reason string
}

func (e *AdoptError) Error() string {
	return fmt.Sprintf("online: cannot adopt vm %d onto server %d: %s", e.VM, e.Server, e.Reason)
}

// Adopt places a VM that is already running elsewhere (on another shard)
// onto server index `to`, preserving the identity it acquired at first
// admission: actualStart is the start minute its original owner granted,
// and the adopted placement keeps it — and with it the VM's residency
// interval and departure minute — where a fresh Commit would re-delay a
// past start to the current clock. This is the destination half of a
// cross-shard migration, the primitive the gate's topology rebalancer
// drains remapped VMs with (adopt on the new owner, then release on the
// old).
//
// This shard hosts — and charges run cost for — only the remainder: the
// handoff minute is the next minute for a started VM, the actual start
// for one still in the future, matching what the source refunds when it
// releases its copy. Unlike Migrate, a sleeping or waking target does
// not make the move infeasible: the two shards cannot coordinate a wake
// deadline, so the handoff is pushed to the wake completion instead and
// the minutes in between simply run on neither shard. Start-delay
// counters are untouched (the delay was accounted at first admission).
//
// On success Adopt returns the handoff minute. Infeasible requests
// return an *AdoptError and leave the fleet untouched.
func (fl *Fleet) Adopt(to int, v model.VM, actualStart int) (int, error) {
	if to < 0 || to >= len(fl.view.units) {
		return 0, fmt.Errorf("online: server index %d out of range", to)
	}
	r, srvID := &fl.view.rows[to], fl.view.units[to].srv.ID
	if _, dup := fl.resident[v.ID]; dup {
		return 0, &AdoptError{VM: v.ID, Server: srvID, Reason: "vm already resident"}
	}
	if actualStart < v.Start {
		return 0, &AdoptError{VM: v.ID, Server: srvID,
			Reason: fmt.Sprintf("actual start %d before requested start %d", actualStart, v.Start)}
	}
	now := fl.view.now
	p := PlacedVM{VM: v, Start: actualStart}
	end := p.End()
	if end < actualStart || end == math.MaxInt {
		return 0, &AdoptError{VM: v.ID, Server: srvID, Reason: "end overflows the time horizon"}
	}
	handoff := max(actualStart, now+1)
	switch r.state {
	case Waking:
		handoff = max(handoff, r.wakeDone)
	case PowerSaving:
		handoff = max(handoff, now+r.wake)
	}
	if handoff > end {
		return 0, &AdoptError{VM: v.ID, Server: srvID, Reason: "no remaining minutes to host"}
	}
	if reason := fl.shortfall(to, v.Demand, handoff, end); reason != "" {
		return 0, &AdoptError{VM: v.ID, Server: srvID, Reason: reason}
	}
	fl.land(to, p, handoff)
	fl.adopted++
	return handoff, nil
}

// shortfall asks probe whether server i can host demand d over [handoff,
// end] and words a "no" as Migrate's and Adopt's refusal reason; "" means
// it fits. Demand.Fits only picks which reason.
func (fl *Fleet) shortfall(i int, d model.Resources, handoff, end int) string {
	if ok, _ := fl.view.probe(i, d.CPU, d.Mem, handoff, end); ok {
		return ""
	}
	if !d.Fits(fl.view.units[i].srv.Capacity) {
		return "vm exceeds server capacity"
	}
	return "target lacks capacity over the remaining interval"
}

// land puts p on server i from the handoff minute through its end — the
// last step of Commit, Migrate and Adopt: a sleeping server is woken, the
// hosted minutes' run cost is charged at its P¹, the reservation is added
// with its departure, and p is recorded as resident there.
func (fl *Fleet) land(i int, p PlacedVM, handoff int) {
	r := &fl.view.rows[i]
	if r.state == PowerSaving {
		fl.wake(i)
	}
	end := p.End()
	fl.energy.Run += r.p1 * p.VM.Demand.CPU * float64(end-handoff+1)
	fl.host(i, p.VM.ID, handoff, end, p.VM.Demand)
	fl.view.units[i].used = true
	p.Server = i
	fl.resident[p.VM.ID] = p
}

// leave takes resident p off its server at the current minute — Release,
// and the source half of Migrate: the run cost of the minutes from
// max(Start, now+1) through its end is refunded at the server's P¹, the
// reservation is cut short, and the server is vacated. If the VM had
// started, the ledger keeps a shrunk entry covering the consumed minutes
// [Start, now]; its natural departure event will be stale
// (identity-checked away), so an explicit cleanup is scheduled for the
// minute the entry becomes entirely past — otherwise every
// started-then-released VM would grow the ledger forever. The caller
// removes or replaces p's resident record.
func (fl *Fleet) leave(p PlacedVM) {
	now, i := fl.view.now, p.Server
	fl.energy.Run -= fl.view.rows[i].p1 * p.VM.Demand.CPU * float64(p.End()-max(p.Start, now+1)+1)
	if fl.view.truncate(i, p.VM.ID, now) {
		fl.push(event{time: now + 1, kind: evCleanup, srv: i, vmID: p.VM.ID})
	}
	fl.vacate(i, now)
}

// host reserves demand on server i over [start, end] under the VM's ID
// and schedules the departure.
func (fl *Fleet) host(i, id, start, end int, demand model.Resources) {
	fl.view.add(i, id, timeline.Reservation{
		Interval: timeline.Interval{Start: start, End: end},
		CPU:      demand.CPU,
		Mem:      demand.Mem,
	})
	fl.view.rows[i].vms++
	fl.push(event{time: end + 1, kind: evDeparture, srv: i, vmID: id})
}

// wake starts sleeping server i's power-saving → active transition at the
// current minute and charges its cost.
func (fl *Fleet) wake(i int) {
	r := &fl.view.rows[i]
	r.state = Waking
	r.wakeDone = fl.view.now + r.wake
	fl.view.units[i].transitions++
	fl.energy.Transition += r.alpha
	fl.push(event{time: r.wakeDone, kind: evWakeDone, srv: i})
}

// vacate decrements a server's VM count and, when it empties while
// active, starts the idle countdown.
func (fl *Fleet) vacate(i, now int) {
	r := &fl.view.rows[i]
	r.vms--
	if r.vms == 0 && r.state == Active {
		fl.view.units[i].idleSince = now
		if fl.idleTimeout >= 0 {
			fl.push(event{time: now + fl.idleTimeout, kind: evIdleCheck, srv: i})
		}
	}
}

func (fl *Fleet) push(ev event) {
	ev.seq = fl.seq
	fl.seq++
	fl.events.push(ev)
}

func (fl *Fleet) handle(ev event) {
	u, r := &fl.view.units[ev.srv], &fl.view.rows[ev.srv]
	switch ev.kind {
	case evWakeDone:
		if r.state == Waking && r.wakeDone == ev.time {
			r.state = Active
			u.activeSince = ev.time
			u.idleSince = ev.time // re-evaluated by departures
			if r.vms == 0 && fl.idleTimeout >= 0 {
				// Every VM that triggered this wake was released before it
				// completed: start the idle countdown immediately.
				fl.push(event{time: ev.time + fl.idleTimeout, kind: evIdleCheck, srv: ev.srv})
			}
		}
	case evDeparture:
		// Verify the departure still matches the resident it was scheduled
		// for: the VM may have been released early, and its ID may since
		// have been reused by a new admission (possibly on another server,
		// or with another end). A stale departure must never evict the new
		// incarnation or touch the old server's ledger and counters.
		p, stillHere := fl.resident[ev.vmID]
		if !stillHere || p.Server != ev.srv || p.End()+1 != ev.time {
			return
		}
		delete(fl.resident, ev.vmID)
		fl.view.remove(ev.srv, ev.vmID)
		fl.vacate(ev.srv, ev.time)
	case evIdleCheck:
		if r.state == Active && r.vms == 0 && u.idleSince+fl.idleTimeout <= ev.time {
			// Sleep: account the active stretch.
			u.idleEnergy += r.pIdle * float64(ev.time-u.activeSince)
			r.state = PowerSaving
		}
	case evCleanup:
		// Reclaim the truncated reservation a Release left behind — unless
		// the ID was re-admitted to this server, in which case the ledger
		// entry under this key belongs to the new incarnation. (A
		// non-resident entry reachable here is always strictly past: it
		// ends at some release minute < ev.time, so removing it never
		// changes a feasibility query.)
		if p, ok := fl.resident[ev.vmID]; ok && p.Server == ev.srv {
			return
		}
		fl.view.remove(ev.srv, ev.vmID)
	}
}

// FleetSnapshot is the serialisable durable state of a Fleet. Together
// with the server list and idle timeout it reconstructs an equivalent
// fleet: resource reservations and pending departures are rebuilt from the
// resident VMs, wake-up completions from the per-unit wake deadlines, and
// idle countdowns from the per-unit idle marks.
type FleetSnapshot struct {
	Now        int              `json:"now"`
	Energy     energy.Breakdown `json:"energy"` // accrued run + transition
	TotalDelay int              `json:"totalDelayMinutes"`
	MaxDelay   int              `json:"maxDelayMinutes"`
	Admitted   int              `json:"admitted"`
	Released   int              `json:"released"`
	Migrated   int              `json:"migrated,omitempty"`
	Adopted    int              `json:"adopted,omitempty"`
	Units      []UnitSnapshot   `json:"units"`
	Residents  []PlacedVM       `json:"residents"`
}

// UnitSnapshot is one server's durable state.
type UnitSnapshot struct {
	State       State   `json:"state"`
	WakeDone    int     `json:"wakeDone,omitempty"`
	ActiveSince int     `json:"activeSince,omitempty"`
	IdleSince   int     `json:"idleSince,omitempty"`
	IdleEnergy  float64 `json:"idleEnergyWattMinutes,omitempty"`
	Transitions int     `json:"transitions,omitempty"`
	Used        bool    `json:"used,omitempty"`
}

// Snapshot captures the fleet's durable state.
func (fl *Fleet) Snapshot() *FleetSnapshot {
	snap := &FleetSnapshot{
		Now:        fl.view.now,
		Energy:     fl.energy,
		TotalDelay: fl.totalDelay,
		MaxDelay:   fl.maxDelay,
		Admitted:   fl.admitted,
		Released:   fl.released,
		Migrated:   fl.migrated,
		Adopted:    fl.adopted,
		Units:      make([]UnitSnapshot, len(fl.view.units)),
		Residents:  fl.Residents(),
	}
	for i := range fl.view.units {
		u, r := &fl.view.units[i], &fl.view.rows[i]
		snap.Units[i] = UnitSnapshot{
			State:       r.state,
			WakeDone:    r.wakeDone,
			ActiveSince: u.activeSince,
			IdleSince:   u.idleSince,
			IdleEnergy:  u.idleEnergy,
			Transitions: u.transitions,
			Used:        u.used,
		}
	}
	return snap
}

// RestoreFleet rebuilds a fleet from a snapshot taken on an identical
// server list with the same idle timeout. It refuses a snapshot no fleet
// could have taken: a unit in no power state, or a resident listed twice.
func RestoreFleet(servers []model.Server, idleTimeout int, snap *FleetSnapshot) (*Fleet, error) {
	if len(snap.Units) != len(servers) {
		return nil, fmt.Errorf("online: snapshot has %d units for %d servers", len(snap.Units), len(servers))
	}
	fl := NewFleet(servers, idleTimeout)
	fl.view.now = snap.Now
	fl.energy = snap.Energy
	fl.totalDelay = snap.TotalDelay
	fl.maxDelay = snap.MaxDelay
	fl.admitted = snap.Admitted
	fl.released = snap.Released
	fl.migrated = snap.Migrated
	fl.adopted = snap.Adopted
	for i, us := range snap.Units {
		if us.State != PowerSaving && us.State != Waking && us.State != Active {
			return nil, fmt.Errorf("online: server index %d in unknown power state %d", i, int(us.State))
		}
		u, r := &fl.view.units[i], &fl.view.rows[i]
		r.state = us.State
		r.wakeDone = us.WakeDone
		u.activeSince = us.ActiveSince
		u.idleSince = us.IdleSince
		u.idleEnergy = us.IdleEnergy
		u.transitions = us.Transitions
		u.used = us.Used
		if r.state == Waking {
			fl.push(event{time: r.wakeDone, kind: evWakeDone, srv: i})
		}
	}
	for _, p := range snap.Residents {
		if p.Server < 0 || p.Server >= len(fl.view.units) {
			return nil, fmt.Errorf("online: resident vm %d on unknown server index %d", p.VM.ID, p.Server)
		}
		end := p.End()
		if end < p.Start || end == math.MaxInt {
			return nil, fmt.Errorf("online: resident vm %d end overflows the time horizon", p.VM.ID)
		}
		if _, dup := fl.resident[p.VM.ID]; dup {
			return nil, fmt.Errorf("online: resident vm %d listed twice", p.VM.ID)
		}
		fl.host(p.Server, p.VM.ID, p.Start, end, p.VM.Demand)
		fl.resident[p.VM.ID] = p
	}
	// Re-arm idle countdowns on empty active servers.
	for i := range fl.view.rows {
		if r := &fl.view.rows[i]; r.state == Active && r.vms == 0 && fl.idleTimeout >= 0 {
			fl.push(event{time: fl.view.units[i].idleSince + fl.idleTimeout, kind: evIdleCheck, srv: i})
		}
	}
	return fl, nil
}
