package cluster

import (
	"context"
	"fmt"
	"sort"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/obs"
	"vmalloc/internal/online"
	"vmalloc/internal/timeline"
)

// minNetSaving is the strict profitability threshold of the
// pay-for-itself rule. Requiring a saving strictly above a small epsilon
// (instead of > 0) keeps the metamorphic never-worse guarantee robust
// against float summation-order noise between the planner's estimate and
// the fleet's own accrual.
const minNetSaving = 1e-9

// plannedMove is one victim→target assignment within a donor drain plan.
type plannedMove struct {
	vm       online.PlacedVM
	to       int     // target server index
	runDelta float64 // (target − source) marginal run cost of the remaining minutes
	extraIdl float64 // idle energy the target accrues by staying active longer
	cost     float64 // migration overhead: cost-per-GB × memory
}

// Consolidate runs one consolidation pass: scan for under-utilised active
// servers, plan a full drain for each via the victim-selection policy,
// and execute exactly the drains whose estimated Eq. 17 saving exceeds
// their migration cost (the pay-for-itself rule). Executed migrations are
// journaled like any other mutation and recorded as flight-recorder
// migrate decisions.
//
// The saving estimate is exact for a closed system (no further arrivals):
// the donor's idle segment until its last resident's departure is saved,
// the remaining run minutes are re-priced at each target's marginal rate,
// and each target's extended active stretch is charged. Only active
// targets are used — a pass never wakes a server — so executing a
// profitable drain never increases the fleet's eventual total energy, and
// migrations never change a VM's (start, end); both guarantees are pinned
// by the metamorphic tests.
//
// An empty request policy means min-migration-time. The response's
// EnergySavedWattMinutes charges the migration overhead in the planner's
// books, but the fleet's Eq. 8 energy never consumes it — so the realised
// drop in total energy exceeds the reported saving by exactly the charged
// migration costs.
//
// At most one pass runs at a time: a call racing an in-flight pass fails
// fast with ErrConsolidationBusy.
func (c *Cluster) Consolidate(ctx context.Context, req api.ConsolidateRequest) (*api.ConsolidateResponse, error) {
	if !c.consolidating.CompareAndSwap(false, true) {
		return nil, ErrConsolidationBusy
	}
	defer c.consolidating.Store(false)

	policy := req.Policy
	if policy == "" {
		policy = api.PolicyMinMigrationTime
	}
	if policy != api.PolicyMinMigrationTime && policy != api.PolicyMinUtilization {
		return nil, fmt.Errorf("cluster: unknown consolidation policy %q", policy)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.guardLocked(); err != nil {
		return nil, err
	}

	t0 := time.Now()
	fv := c.fleet.View()
	now := c.fleet.Now()
	// A move-less pass serves "moves": [], not null.
	res := &api.ConsolidateResponse{Clock: now, Policy: policy, Moves: []api.MigrationRecord{}}

	// Group residents by hosting server.
	byServer := make([][]online.PlacedVM, fv.NumServers())
	for _, p := range c.fleet.Residents() {
		byServer[p.Server] = append(byServer[p.Server], p)
	}

	// Donor candidates: active servers hosting VMs below the utilisation
	// threshold (committed CPU demand over capacity).
	util := func(i int) float64 {
		var cpu float64
		for _, p := range byServer[i] {
			cpu += p.VM.Demand.CPU
		}
		return cpu / fv.Server(i).Capacity.CPU
	}
	totalMem := func(i int) float64 {
		var mem float64
		for _, p := range byServer[i] {
			mem += p.VM.Demand.Mem
		}
		return mem
	}
	var donors []int
	for i := 0; i < fv.NumServers(); i++ {
		if fv.StateOf(i) == online.Active && len(byServer[i]) > 0 && util(i) < donorUtilization {
			donors = append(donors, i)
		}
	}
	// Policy-ordered donor queue. min-migration-time drains the cheapest
	// evacuations first (least resident memory); min-utilization the
	// emptiest servers first. Ties resolve to the lowest index.
	sort.SliceStable(donors, func(a, b int) bool {
		var ka, kb float64
		switch policy {
		case api.PolicyMinUtilization:
			ka, kb = util(donors[a]), util(donors[b])
		default:
			ka, kb = totalMem(donors[a]), totalMem(donors[b])
		}
		if ka != kb {
			return ka < kb
		}
		return donors[a] < donors[b]
	})

	received := make(map[int]bool) // servers that absorbed a drain this pass
	reqID := obs.RequestID(ctx)
	// The whole pass is one SpanConsolidate span; each executed move's
	// SpanMigrate umbrella (and its stage spans) nests under it.
	tc := obs.TraceContextFrom(ctx)
	passTC, passDone := c.openSpan(tc, obs.Span{Name: obs.SpanConsolidate, Detail: policy, Start: t0})
	defer passDone()
	for _, donor := range donors {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if received[donor] {
			continue // it absorbed an earlier drain; draining it back would churn
		}
		planT0 := time.Now()
		moves, net, ok := c.planDrainLocked(policy, donor, byServer, now)
		planDur := time.Since(planT0)
		res.Donors++
		if !ok || net <= minNetSaving {
			continue
		}
		if req.MaxMoves > 0 && res.Executed+len(moves) > req.MaxMoves {
			continue // only full drains realise the donor's idle saving
		}
		perMove := net / float64(len(moves))
		for _, m := range moves {
			d := obs.Decision{
				RequestID: reqID,
				TraceID:   tc.TraceID,
				Op:        obs.OpMigrate,
				VM:        m.vm.VM.ID,
				Clock:     now,
				Stages:    obs.StageTimings{Scan: planDur}, // the donor's planning time
			}
			// The move's umbrella span starts with its donor's planning.
			clk := stageClock{entered: planT0, commit: time.Now()}
			from, handoff, err := c.fleet.Migrate(m.vm.VM.ID, m.to)
			d.Stages.Commit = time.Since(clk.commit)
			if err != nil {
				// The plan was checked conservatively against the live
				// ledgers, so this is a planner bug, not an operational
				// state; stop the pass rather than guess.
				return res, fmt.Errorf("cluster: consolidation executed an infeasible plan: %w", c.refuseLocked(&d, err))
			}
			rec, jerr := c.journalMigrationLocked(&d, from, m.to, handoff, policy, perMove, m.cost, passTC, clk)
			res.Moves = append(res.Moves, rec)
			res.Executed++
			res.EnergySavedWattMinutes += perMove
			if jerr != nil {
				// Sticky journal failure: the move took effect in memory but
				// further mutations are refused; stop the pass here.
				return res, jerr
			}
			received[m.to] = true
		}
		byServer[donor] = nil
		for _, m := range moves {
			moved := m.vm
			moved.Server = m.to
			byServer[m.to] = append(byServer[m.to], moved)
		}
	}

	c.met.consolidations++
	c.met.consolidateSeconds.Observe(time.Since(t0).Seconds())
	c.log.Info("consolidation pass",
		"policy", policy,
		"donors", res.Donors,
		"executed", res.Executed,
		"savedWattMinutes", res.EnergySavedWattMinutes,
		"duration", time.Since(t0),
	)
	c.finishLocked()
	return res, nil
}

// planDrainLocked plans the full evacuation of one donor server: every
// resident is assigned an active target (never the donor, never a waking
// or sleeping server), and the plan's exact net saving is computed:
//
//	net = donor idle saved − Σ run re-pricing − Σ target idle extension − Σ migration cost
//
// The donor's idle saving is P_idle·(lastEnd+1 − now): without the drain
// the donor stays active until its last resident departs; with it, the
// idle countdown starts now (both pay the same timeout tail). A target
// that must stay active past its own horizon to host a migrant is charged
// for the extension. With a negative idle timeout servers never sleep, so
// both idle terms vanish and only run re-pricing can pay for a move.
//
// Feasibility is conservative: a candidate target must fit the victim's
// remaining interval against its live ledger plus everything this plan
// already assigned to it (window maxima summed, an upper bound), so an
// accepted plan can never fail execution. ok is false when some victim
// has no feasible target or no remaining minutes to move. byServer is the
// caller's grouping of the fleet's residents by hosting server index.
func (c *Cluster) planDrainLocked(policy string, donor int, byServer [][]online.PlacedVM, now int) ([]plannedMove, float64, bool) {
	victims := byServer[donor]
	fv := c.fleet.View()
	dsrv := fv.Server(donor)
	idleTimeout := c.cfg.IdleTimeout

	// Victim order: cheapest moves first under min-migration-time
	// (smallest memory), lowest CPU demand first under min-utilization.
	// Ties resolve by VM ID.
	ordered := make([]online.PlacedVM, len(victims))
	copy(ordered, victims)
	sort.SliceStable(ordered, func(a, b int) bool {
		var ka, kb float64
		switch policy {
		case api.PolicyMinUtilization:
			ka, kb = ordered[a].VM.Demand.CPU, ordered[b].VM.Demand.CPU
		default:
			ka, kb = ordered[a].VM.Demand.Mem, ordered[b].VM.Demand.Mem
		}
		if ka != kb {
			return ka < kb
		}
		return ordered[a].VM.ID < ordered[b].VM.ID
	})

	// Per-target scratch: reservations this plan already assigned, and the
	// target's activity horizon (the last minute some VM keeps it busy).
	scratch := make(map[int]*timeline.Ledger)
	horizon := make(map[int]int)
	horizonOf := func(i int) int {
		if h, ok := horizon[i]; ok {
			return h
		}
		h := now - 1
		found := false
		for _, p := range byServer[i] {
			if p.End() > h {
				h = p.End()
				found = true
			}
		}
		if !found {
			// Empty active target: its idle countdown started at idleSince,
			// so hosting a migrant ending at e extends its active stretch by
			// e − (idleSince − 1) minutes.
			h = fv.IdleSince(i) - 1
		}
		horizon[i] = h
		return h
	}

	var moves []plannedMove
	var lastEnd int
	for _, v := range ordered {
		end := v.End()
		if end > lastEnd {
			lastEnd = end
		}
		handoff := v.Start
		if now+1 > handoff {
			handoff = now + 1
		}
		if handoff > end {
			return nil, 0, false // nothing left to move: the drain cannot empty the donor
		}
		remaining := float64(end - handoff + 1)
		best, bestScore := -1, 0.0
		for j := 0; j < fv.NumServers(); j++ {
			if j == donor || fv.StateOf(j) != online.Active {
				continue
			}
			tsrv := fv.Server(j)
			if !v.VM.Demand.Fits(tsrv.Capacity) {
				continue
			}
			liveCPU, liveMem := fv.MaxUsage(j, handoff, end)
			if sc := scratch[j]; sc != nil {
				pCPU, pMem := sc.MaxUsage(handoff, end)
				liveCPU += pCPU
				liveMem += pMem
			}
			if liveCPU+v.VM.Demand.CPU > tsrv.Capacity.CPU || liveMem+v.VM.Demand.Mem > tsrv.Capacity.Mem {
				continue
			}
			score := (tsrv.UnitCPUPower() - dsrv.UnitCPUPower()) * v.VM.Demand.CPU * remaining
			if idleTimeout >= 0 {
				if h := horizonOf(j); end > h {
					score += tsrv.PIdle * float64(end-h)
				}
			}
			if best < 0 || score < bestScore {
				best, bestScore = j, score
			}
		}
		if best < 0 {
			return nil, 0, false
		}
		if scratch[best] == nil {
			scratch[best] = timeline.NewLedger()
		}
		scratch[best].Add(v.VM.ID, timeline.Reservation{
			Interval: timeline.Interval{Start: handoff, End: end},
			CPU:      v.VM.Demand.CPU,
			Mem:      v.VM.Demand.Mem,
		})
		move := plannedMove{
			vm:       v,
			to:       best,
			runDelta: (fv.Server(best).UnitCPUPower() - dsrv.UnitCPUPower()) * v.VM.Demand.CPU * remaining,
			cost:     c.cfg.MigrationCostPerGB * v.VM.Demand.Mem,
		}
		if idleTimeout >= 0 {
			if h := horizonOf(best); end > h {
				move.extraIdl = fv.Server(best).PIdle * float64(end-h)
				horizon[best] = end
			}
		}
		moves = append(moves, move)
	}

	var net float64
	if idleTimeout >= 0 {
		// Without the drain the donor idles until its last departure at
		// lastEnd+1; with it, the countdown starts now. The timeout tail is
		// paid either way.
		net = dsrv.PIdle * float64(lastEnd+1-now)
	}
	for _, m := range moves {
		net -= m.runDelta + m.extraIdl + m.cost
	}
	return moves, net, true
}
