package online

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"vmalloc/internal/energy"
	"vmalloc/internal/model"
)

// ScoredPolicy is a Policy whose choice is the argmin of a per-server
// score. Exposing the score lets callers parallelise the candidate scan
// (the cluster layer fans Score out over the core scan engine) while
// keeping the exact same selection: the chosen index is the feasible
// server with the minimum score, ties broken toward the lowest index.
type ScoredPolicy interface {
	Policy
	// Score returns the policy's cost of placing v on server index i, and
	// false if i cannot host v. It must be a pure read of the fleet view:
	// the scan engine calls it concurrently for distinct indices.
	Score(f *FleetView, v model.VM, i int) (float64, bool)
}

// argminScored is the sequential scan shared by the scored policies: the
// feasible server with the strictly smallest score wins, so equal-score
// candidates resolve to the lowest server index — the same guarantee the
// offline engine's deterministic argmin reduction provides.
func argminScored(p ScoredPolicy, f *FleetView, v model.VM) (int, error) {
	best := -1
	var bestCost float64
	for i := 0; i < f.NumServers(); i++ {
		cost, ok := p.Score(f, v, i)
		if !ok {
			continue
		}
		if best < 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	if best < 0 {
		return 0, &NoCapacityError{VM: v}
	}
	return best, nil
}

// MinCostPolicy is the online counterpart of the paper's heuristic: each
// VM goes to the feasible server with the least *estimated* incremental
// energy, computed from the present only — run cost, plus the wake-up
// cost if the server sleeps, plus the idle power for the stretch the
// server would be newly kept active.
//
// Determinism: equal-cost candidates resolve to the lowest server index,
// matching the offline engine's tie-break guarantee, so placements are
// byte-identical whether the scan runs sequentially or through the
// parallel scan engine.
type MinCostPolicy struct{}

var _ ScoredPolicy = (*MinCostPolicy)(nil)

// Name implements Policy.
func (*MinCostPolicy) Name() string { return "online/mincost" }

// Score implements ScoredPolicy.
func (*MinCostPolicy) Score(f *FleetView, v model.VM, i int) (float64, bool) {
	start := f.StartTime(i, v)
	if !f.Fits(i, v, start) {
		return 0, false
	}
	s := f.Server(i)
	cost := energy.RunCost(s, v)
	if f.StateOf(i) == PowerSaving {
		cost += s.TransitionCost()
	}
	if f.Running(i) == 0 {
		// The server would be kept active for this VM alone.
		cost += s.PIdle * float64(v.Duration())
	}
	return cost, true
}

// Place implements Policy.
func (p *MinCostPolicy) Place(f *FleetView, v model.VM) (int, error) {
	return argminScored(p, f, v)
}

// DelayAwareMinCostPolicy extends MinCostPolicy with a latency penalty:
// each minute of expected start delay costs the caller `PenaltyPerMinute`
// watt-minutes, trading energy for responsiveness.
//
// Determinism: equal-cost candidates resolve to the lowest server index,
// matching the offline engine's tie-break guarantee, so placements are
// byte-identical whether the scan runs sequentially or through the
// parallel scan engine.
type DelayAwareMinCostPolicy struct {
	// PenaltyPerMinute prices one minute of VM start delay, in
	// watt-minutes.
	PenaltyPerMinute float64
}

var _ ScoredPolicy = (*DelayAwareMinCostPolicy)(nil)

// Name implements Policy.
func (*DelayAwareMinCostPolicy) Name() string { return "online/delay-aware" }

// Score implements ScoredPolicy.
func (p *DelayAwareMinCostPolicy) Score(f *FleetView, v model.VM, i int) (float64, bool) {
	start := f.StartTime(i, v)
	if !f.Fits(i, v, start) {
		return 0, false
	}
	s := f.Server(i)
	cost := energy.RunCost(s, v)
	if f.StateOf(i) == PowerSaving {
		cost += s.TransitionCost()
	}
	if f.Running(i) == 0 {
		cost += s.PIdle * float64(v.Duration())
	}
	cost += p.PenaltyPerMinute * float64(start-v.Start)
	return cost, true
}

// Place implements Policy.
func (p *DelayAwareMinCostPolicy) Place(f *FleetView, v model.VM) (int, error) {
	return argminScored(p, f, v)
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
		if f.Fits(i, v, f.StartTime(i, v)) {
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
	for i := 0; i < f.NumServers(); i++ {
		start := f.StartTime(i, v)
		if !f.Fits(i, v, start) {
			continue
		}
		s := f.Server(i)
		if f.StateOf(i) != PowerSaving {
			spare := s.Capacity.CPU - v.Demand.CPU
			if spare < bestSpare {
				bestSpare = spare
				bestActive = i
			}
			continue
		}
		wake := s.TransitionCost() + s.PIdle*float64(v.Duration())
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
