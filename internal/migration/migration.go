// Package migration extends the paper's allocation-only model with live
// migration. Related work in §V saves energy "by dynamic migration of VMs
// according to the current resource utilization"; the paper deliberately
// restricts itself to placement-time decisions. This package quantifies
// what that restriction costs: a greedy consolidator revisits a placement
// at fixed epochs and evacuates poorly-utilised servers, splitting VM
// assignments in time and paying a per-GB migration energy overhead.
//
// A migratory solution is a Schedule: each VM's interval is tiled by
// Pieces, each hosted on one server. Schedules are validated against the
// same capacity constraints as placements and priced by the same
// energy model, plus the migration overhead.
package migration

import (
	"fmt"
	"sort"

	"vmalloc/internal/energy"
	"vmalloc/internal/ilp"
	"vmalloc/internal/model"
)

// Piece is a contiguous stretch of a VM's life on one server.
type Piece struct {
	ServerID int `json:"serverId"`
	Start    int `json:"start"`
	End      int `json:"end"`
}

// Schedule maps VM ID to the time-ordered pieces tiling its interval.
type Schedule map[int][]Piece

// Move records one migration.
type Move struct {
	VMID int `json:"vmId"`
	From int `json:"from"`
	To   int `json:"to"`
	Time int `json:"time"`
}

// Config tunes the consolidator.
type Config struct {
	// Interval is the consolidation period in minutes (epochs at
	// Interval, 2·Interval, …). Must be positive.
	Interval int `json:"intervalMinutes"`
	// CostPerGB is the energy-equivalent cost of migrating one GByte of
	// VM memory, in watt-minutes. It models the source+destination CPU
	// and network cost of a pre-copy migration.
	CostPerGB float64 `json:"costPerGBWattMinutes"`
	// MaxMovesPerEpoch caps migrations per epoch; 0 means unlimited.
	MaxMovesPerEpoch int `json:"maxMovesPerEpoch,omitempty"`
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	if c.Interval < 1 {
		return fmt.Errorf("migration: interval %d < 1", c.Interval)
	}
	if c.CostPerGB < 0 {
		return fmt.Errorf("migration: negative cost per GB %g", c.CostPerGB)
	}
	return nil
}

// Result is a consolidation outcome.
type Result struct {
	Schedule Schedule `json:"schedule"`
	Moves    []Move   `json:"moves"`
	// Base is the energy of the input placement; Final the energy of the
	// migratory schedule, and MigrationEnergy what its moves cost on top.
	Base            energy.Breakdown `json:"base"`
	Final           energy.Breakdown `json:"final"`
	MigrationEnergy float64          `json:"migrationEnergyWattMinutes"`
}

// FromPlacement lifts a plain placement into a schedule (one piece per
// VM).
func FromPlacement(inst model.Instance, placement map[int]int) (Schedule, error) {
	byServer, err := inst.ByServer(placement)
	if err != nil {
		return nil, fmt.Errorf("migration: %w", err)
	}
	s := make(Schedule, len(inst.VMs))
	for i, vms := range byServer {
		for _, v := range vms {
			s[v.ID] = []Piece{{ServerID: inst.Servers[i].ID, Start: v.Start, End: v.End}}
		}
	}
	return s, nil
}

// checked checks that the instance is valid, and that the schedule tiles
// every VM's interval exactly and respects every server's CPU and memory
// capacity at every time unit. It returns the per-server pieces it checked.
func (s Schedule) checked(inst model.Instance) ([][]model.VM, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	byServer, err := s.byServer(inst)
	if err != nil {
		return nil, err
	}
	for i, pieces := range byServer {
		if err := ilp.CheckServer(inst.Servers[i], pieces); err != nil {
			return nil, fmt.Errorf("migration: %w", err)
		}
	}
	return byServer, nil
}

// byServer lists each server's pieces, in inst.Servers order, as VMs with
// the piece's interval and its VM's demand (VM order, then piece order). It
// checks that the pieces tile every VM's interval exactly on known servers.
func (s Schedule) byServer(inst model.Instance) ([][]model.VM, error) {
	index := make(map[int]int, len(inst.Servers))
	for i, srv := range inst.Servers {
		index[srv.ID] = i
	}
	byServer := make([][]model.VM, len(inst.Servers))
	for _, v := range inst.VMs {
		pieces := s[v.ID]
		if len(pieces) == 0 {
			return nil, fmt.Errorf("migration: vm %d has no pieces", v.ID)
		}
		at := v.Start
		for k, p := range pieces {
			if p.Start != at {
				return nil, fmt.Errorf("migration: vm %d piece %d starts at %d, want %d", v.ID, k, p.Start, at)
			}
			if p.End < p.Start {
				return nil, fmt.Errorf("migration: vm %d piece %d is inverted", v.ID, k)
			}
			i, ok := index[p.ServerID]
			if !ok {
				return nil, fmt.Errorf("migration: vm %d piece %d on unknown server %d", v.ID, k, p.ServerID)
			}
			byServer[i] = append(byServer[i], model.VM{
				ID:     v.ID*1000 + k, // synthetic piece id; only interval+demand matter
				Demand: v.Demand,
				Start:  p.Start,
				End:    p.End,
			})
			at = p.End + 1
		}
		if at != v.End+1 {
			return nil, fmt.Errorf("migration: vm %d pieces end at %d, want %d", v.ID, at-1, v.End)
		}
	}
	return byServer, nil
}

// Evaluate prices a schedule: the usual three-component energy over the
// per-server piece sets, plus CostPerGB for every migration (a VM with k
// pieces migrates k−1 times).
func Evaluate(inst model.Instance, s Schedule, costPerGB float64) (energy.Breakdown, float64, error) {
	byServer, err := s.checked(inst)
	if err != nil {
		return energy.Breakdown{}, 0, err
	}
	var migration float64
	for _, v := range inst.VMs {
		migration += costPerGB * v.Demand.Mem * float64(len(s[v.ID])-1)
	}
	var total energy.Breakdown
	for i, pieces := range byServer {
		if len(pieces) > 0 {
			total = total.Add(energy.EvaluateServer(inst.Servers[i], pieces))
		}
	}
	return total, migration, nil
}

// Consolidator improves a placement by evacuating under-utilised servers
// at every epoch.
type Consolidator struct {
	Config Config
}

// Plan runs the consolidation over the whole horizon and returns the
// migratory schedule with its accounting. The input placement must be
// feasible.
func (c *Consolidator) Plan(inst model.Instance, placement map[int]int) (*Result, error) {
	if err := c.Config.Validate(); err != nil {
		return nil, err
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	sched, err := FromPlacement(inst, placement)
	if err != nil {
		return nil, err
	}
	base, _, err := Evaluate(inst, sched, 0)
	if err != nil {
		return nil, fmt.Errorf("migration: base placement invalid: %w", err)
	}
	var moves []Move
	for t := c.Config.Interval; t <= inst.Horizon; t += c.Config.Interval {
		epochMoves := c.consolidateEpoch(inst, sched, t)
		moves = append(moves, epochMoves...)
	}
	final, mig, err := Evaluate(inst, sched, c.Config.CostPerGB)
	if err != nil {
		return nil, fmt.Errorf("migration: consolidated schedule invalid: %w", err)
	}
	return &Result{
		Schedule:        sched,
		Moves:           moves,
		Base:            base,
		Final:           final,
		MigrationEnergy: mig,
	}, nil
}

// futurePiece is a VM piece live at the epoch under consideration.
type futurePiece struct {
	vmID   int
	k      int // piece index within the VM's schedule
	demand model.Resources
	end    int
}

// consolidateEpoch greedily evacuates donors at time t, mutating sched.
func (c *Consolidator) consolidateEpoch(inst model.Instance, sched Schedule, t int) []Move {
	// Build per-server live state: pieces live at t.
	future := make(map[int][]futurePiece)
	for _, v := range inst.VMs {
		// Only the piece that is live at t can migrate at t.
		for k, p := range sched[v.ID] {
			if p.Start <= t && t <= p.End {
				future[p.ServerID] = append(future[p.ServerID], futurePiece{
					vmID: v.ID, k: k, demand: v.Demand, end: p.End,
				})
			}
		}
	}
	// Donor order: fewest live VMs first (cheapest to evacuate).
	donors := make([]int, 0, len(future))
	for sid := range future {
		donors = append(donors, sid)
	}
	sort.Slice(donors, func(a, b int) bool {
		if len(future[donors[a]]) != len(future[donors[b]]) {
			return len(future[donors[a]]) < len(future[donors[b]])
		}
		return donors[a] < donors[b]
	})
	var moves []Move
	received := make(map[int]bool)
	for _, donor := range donors {
		if received[donor] {
			// A server that gained VMs this epoch is consolidation's
			// destination, not its source (and its piece indices in the
			// future map are stale after splits).
			continue
		}
		if c.Config.MaxMovesPerEpoch > 0 && len(moves)+len(future[donor]) > c.Config.MaxMovesPerEpoch {
			continue
		}
		if len(future[donor]) == 0 {
			continue
		}
		plan, gain := c.evacuationPlan(inst, sched, donor, future[donor], t)
		if plan == nil || gain <= 0 {
			continue
		}
		// Commit: split each live piece at t and retarget the remainder.
		for idx, fp := range future[donor] {
			target := plan[idx]
			pieces := sched[fp.vmID]
			p := pieces[fp.k]
			if p.Start == t {
				// The piece starts exactly at the epoch: retarget whole.
				pieces[fp.k].ServerID = target
			} else {
				head := Piece{ServerID: p.ServerID, Start: p.Start, End: t - 1}
				tail := Piece{ServerID: target, Start: t, End: p.End}
				pieces = append(pieces[:fp.k], append([]Piece{head, tail}, pieces[fp.k+1:]...)...)
				sched[fp.vmID] = pieces
			}
			moves = append(moves, Move{VMID: fp.vmID, From: donor, To: target, Time: t})
			received[target] = true
		}
		future[donor] = nil
	}
	return moves
}

// evacuationPlan decides where each live piece of the donor would go and
// estimates the net energy gain (donor's future activity cost saved minus
// receivers' increments minus migration overhead). Returns nil if any
// piece cannot be rehosted.
func (c *Consolidator) evacuationPlan(
	inst model.Instance,
	sched Schedule,
	donor int,
	live []futurePiece,
	t int,
) ([]int, float64) {
	// Scratch copy of the schedule to measure deltas exactly.
	scratch := make(Schedule, len(sched))
	for id, ps := range sched {
		cp := make([]Piece, len(ps))
		copy(cp, ps)
		scratch[id] = cp
	}
	// Plan validated sched, and splitting or retargeting a piece keeps a
	// schedule tiled, so byServer cannot fail in this function.
	pieces, _ := scratch.byServer(inst)
	affected := map[int]bool{donor: true}
	targets := make([]int, len(live))
	var migCost float64
	for idx, fp := range live {
		target := c.bestTarget(inst, pieces, donor, fp.demand, t, fp.end)
		if target < 0 {
			return nil, 0
		}
		tid := inst.Servers[target].ID
		affected[tid] = true
		// Apply to scratch.
		ps := scratch[fp.vmID]
		p := ps[fp.k]
		if p.Start == t {
			ps[fp.k].ServerID = tid
		} else {
			head := Piece{ServerID: p.ServerID, Start: p.Start, End: t - 1}
			tail := Piece{ServerID: tid, Start: t, End: p.End}
			scratch[fp.vmID] = append(ps[:fp.k], append([]Piece{head, tail}, ps[fp.k+1:]...)...)
		}
		pieces[target] = append(pieces[target], model.VM{Demand: fp.demand, Start: t, End: p.End})
		migCost += c.Config.CostPerGB * fp.demand.Mem
		targets[idx] = tid
	}
	beforeBy, _ := sched.byServer(inst)
	afterBy, _ := scratch.byServer(inst)
	var before, after float64
	for i, srv := range inst.Servers {
		if affected[srv.ID] {
			before += energy.EvaluateServer(srv, beforeBy[i]).Total()
			after += energy.EvaluateServer(srv, afterBy[i]).Total()
		}
	}
	return targets, before - after - migCost
}

// bestTarget picks the feasible receiving server (index) with spare
// capacity over [t, end] that minimises added cost; -1 if none. pieces is
// the schedule's per-server piece list.
func (c *Consolidator) bestTarget(
	inst model.Instance,
	pieces [][]model.VM,
	donor int,
	demand model.Resources,
	t, end int,
) int {
	v := model.VM{Demand: demand, Start: t, End: end}
	best := -1
	var bestScore float64
	for i, srv := range inst.Servers {
		if srv.ID == donor || !ilp.Fits(srv, pieces[i], v) {
			continue
		}
		// Prefer servers already busy around t (their idle power is
		// sunk); among those, the lowest marginal power.
		score := srv.UnitCPUPower() * demand.CPU
		if !busyAt(pieces[i], t) {
			score += srv.PIdle*float64(end-t+1) + srv.TransitionCost()
		}
		if best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

func busyAt(pieces []model.VM, t int) bool {
	for _, p := range pieces {
		if p.Start <= t && t <= p.End {
			return true
		}
	}
	return false
}
