package online

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"vmalloc/internal/model"
)

// minCostPass is the scan MinCostPolicy and DelayAwareMinCostPolicy
// share: one sequential pass over the view's rows, the VM's fields
// hoisted out of the loop, each feasible server priced at its estimated
// incremental energy plus penalty watt-minutes per minute of start delay.
// The feasible server with the strictly smallest cost wins, so equal-cost
// candidates resolve to the lowest server index — the same guarantee the
// offline engine's deterministic argmin reduction provides.
//
// The pass stays on the calling goroutine: it costs a few microseconds
// over 512 rows, less than handing any part of it to a worker.
func minCostPass(f *FleetView, v model.VM, penalty float64) (int, error) {
	cpu, mem := v.Demand.CPU, v.Demand.Mem
	dur := v.Duration()
	minutes := float64(dur)
	best := -1
	var bestCost float64
	var infeasible, rowRejected uint64
	for i := range f.rows {
		r := &f.rows[i]
		start := r.startTime(v.Start)
		if ok, byRow := f.probe(i, cpu, mem, start, start+dur-1); !ok {
			infeasible++
			if byRow {
				rowRejected++
			}
			continue
		}
		cost := r.p1 * cpu * minutes // energy.RunCost, Eq. 3
		if r.state == PowerSaving {
			cost += r.alpha
		}
		if r.vms == 0 {
			// The server would be kept active for this VM alone.
			cost += r.pIdle * minutes
		}
		cost += penalty * float64(start-v.Start)
		if best < 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	f.scan.Evaluated += uint64(len(f.rows))
	f.scan.Infeasible += infeasible
	f.scan.RowRejected += rowRejected
	if best < 0 {
		return 0, &NoCapacityError{VM: v}
	}
	return best, nil
}

// MinCostPolicy is the online counterpart of the paper's heuristic: each
// VM goes to the feasible server with the least *estimated* incremental
// energy, computed from the present only — run cost, plus the wake-up
// cost if the server sleeps, plus the idle power for the stretch the
// server would be newly kept active. Equal-cost candidates resolve to the
// lowest server index.
type MinCostPolicy struct{}

var _ Policy = (*MinCostPolicy)(nil)

// Name implements Policy.
func (*MinCostPolicy) Name() string { return "online/mincost" }

// Place implements Policy.
func (*MinCostPolicy) Place(f *FleetView, v model.VM) (int, error) {
	return minCostPass(f, v, 0)
}

// DelayAwareMinCostPolicy extends MinCostPolicy with a latency penalty:
// each minute of expected start delay costs the caller `PenaltyPerMinute`
// watt-minutes, trading energy for responsiveness. Equal-cost candidates
// resolve to the lowest server index.
type DelayAwareMinCostPolicy struct {
	// PenaltyPerMinute prices one minute of VM start delay, in
	// watt-minutes.
	PenaltyPerMinute float64
}

var _ Policy = (*DelayAwareMinCostPolicy)(nil)

// Name implements Policy.
func (*DelayAwareMinCostPolicy) Name() string { return "online/delay-aware" }

// Place implements Policy.
func (p *DelayAwareMinCostPolicy) Place(f *FleetView, v model.VM) (int, error) {
	return minCostPass(f, v, p.PenaltyPerMinute)
}

// FirstFitPolicy is the online counterpart of FFPS: servers are searched
// in a fresh random order per request and the first fitting one wins.
type FirstFitPolicy struct {
	rng *rand.Rand
}

var _ Policy = (*FirstFitPolicy)(nil)

// NewFirstFitPolicy returns an online FFPS policy seeded for
// reproducibility.
func NewFirstFitPolicy(seed int64) *FirstFitPolicy {
	return &FirstFitPolicy{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Policy.
func (*FirstFitPolicy) Name() string { return "online/ffps" }

// Place implements Policy.
func (p *FirstFitPolicy) Place(f *FleetView, v model.VM) (int, error) {
	order := p.rng.Perm(f.NumServers())
	for _, i := range order {
		if f.candidate(i, &v) {
			return i, nil
		}
	}
	return 0, &NoCapacityError{VM: v}
}

// PreferActivePolicy packs onto already-active servers (tightest spare
// CPU first) and wakes the cheapest sleeping server only when nothing
// active fits — a common practical consolidation rule.
type PreferActivePolicy struct{}

var _ Policy = (*PreferActivePolicy)(nil)

// Name implements Policy.
func (*PreferActivePolicy) Name() string { return "online/prefer-active" }

// Place implements Policy.
func (*PreferActivePolicy) Place(f *FleetView, v model.VM) (int, error) {
	bestActive, bestSleeping := -1, -1
	bestSpare := math.Inf(1)
	var bestWake float64
	for i := range f.rows {
		if !f.candidate(i, &v) {
			continue
		}
		r := &f.rows[i]
		if r.state != PowerSaving {
			spare := r.capCPU - v.Demand.CPU
			if spare < bestSpare {
				bestSpare = spare
				bestActive = i
			}
			continue
		}
		wake := r.alpha + r.pIdle*float64(v.Duration())
		if bestSleeping < 0 || wake < bestWake {
			bestSleeping, bestWake = i, wake
		}
	}
	if bestActive >= 0 {
		return bestActive, nil
	}
	if bestSleeping >= 0 {
		return bestSleeping, nil
	}
	return 0, &NoCapacityError{VM: v}
}

// NoCapacityError reports that no server could host the VM at its arrival.
type NoCapacityError struct {
	VM model.VM
}

func (e *NoCapacityError) Error() string {
	return "online: no server can host vm " + strconv.Itoa(e.VM.ID)
}

// DefaultDelayPenalty is the delay-aware policy's price of one minute of
// start delay, in watt-minutes, where the caller offers no way to set it.
const DefaultDelayPenalty = 50

// PolicyNames lists the names NewPolicy resolves: the accepted values of
// `vmserve -policy`/`-shadow-policy` and of `vmalloc -online -algo`.
func PolicyNames() []string {
	return []string{"mincost", "delay-aware", "prefer-active", "ffps"}
}

// NewPolicy returns the policy registered under name. Only delay-aware
// reads delayPenalty and only ffps reads seed.
func NewPolicy(name string, delayPenalty float64, seed int64) (Policy, error) {
	switch name {
	case "mincost":
		return &MinCostPolicy{}, nil
	case "delay-aware":
		return &DelayAwareMinCostPolicy{PenaltyPerMinute: delayPenalty}, nil
	case "prefer-active":
		return &PreferActivePolicy{}, nil
	case "ffps":
		return NewFirstFitPolicy(seed), nil
	default:
		return nil, fmt.Errorf("unknown policy %q (want %s)", name, strings.Join(PolicyNames(), ", "))
	}
}
