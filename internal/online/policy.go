package online

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"vmalloc/internal/model"
)

// minCostPass is the scan MinCostPolicy and DelayAwareMinCostPolicy
// share: one sequential pass over the view's rows in price-class order,
// the VM's fields hoisted out of the loop, each feasible server priced at
// its estimated incremental energy plus penalty watt-minutes per minute of
// start delay. The least (cost, index) wins, so equal-cost candidates
// resolve to the lowest server index — the same guarantee the offline
// engine's deterministic argmin reduction provides.
//
// A class's run cost W = P¹·cpu·minutes is priced once, and no row left
// unprobed could have won, so no placement moves, bit for bit. Each later
// term of a price is ≥ 0 (α and P_idle by Server.Validate, the penalty by
// checkDelayPenalty, the delay by startTime) and IEEE addition is
// monotone, so a row's price is ≥ its class's W; classes ascend in P¹ and
// IEEE products of non-negative operands are monotone, so W never falls
// from one class to the next. Hence:
//   - a class whose W exceeds the best price ends the scan;
//   - a class whose W equals it is walked only below the best index;
//   - a feasible row priced at exactly W ends its class, whose later rows
//     have higher indexes.
//
// The pass stays on the calling goroutine: it costs a few microseconds
// over 512 rows, less than handing any part of it to a worker.
func minCostPass(f *FleetView, v model.VM, penalty float64) (int, error) {
	cpu, mem := v.Demand.CPU, v.Demand.Mem
	dur := v.Duration()
	minutes := float64(dur)
	best := -1
	var bestCost float64
	var probed, infeasible, rowRejected uint64
	f.compile()
	for _, c := range f.classes {
		w := c.p1 * cpu * minutes // energy.RunCost, Eq. 3
		if best >= 0 && w > bestCost {
			break
		}
		tied := best >= 0 && w == bestCost
		for _, i := range c.rows {
			if tied && i > best {
				break
			}
			probed++
			r := &f.rows[i]
			start := r.startTime(v.Start)
			if ok, byRow := f.probe(i, cpu, mem, start, start+dur-1); !ok {
				infeasible++
				if byRow {
					rowRejected++
				}
				continue
			}
			cost := w
			if r.state == PowerSaving {
				cost += r.alpha
			}
			if r.vms == 0 {
				// The server would be kept active for this VM alone.
				cost += r.pIdle * minutes
			}
			cost += penalty * float64(start-v.Start)
			if best < 0 || cost < bestCost || cost == bestCost && i < best {
				best, bestCost = i, cost
			}
			if cost == w {
				break
			}
		}
	}
	n := uint64(len(f.rows))
	f.scan.Evaluated += n
	f.scan.Bounded += n - probed
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

// Place implements Policy. It refuses a penalty checkDelayPenalty refuses.
func (p *DelayAwareMinCostPolicy) Place(f *FleetView, v model.VM) (int, error) {
	if err := checkDelayPenalty(p.PenaltyPerMinute); err != nil {
		return 0, err
	}
	return minCostPass(f, v, p.PenaltyPerMinute)
}

// DelayPenaltyError reports a delay penalty that is negative, NaN or
// infinite: it would price a delay below zero or as NaN, which breaks
// minCostPass's run-cost bound.
type DelayPenaltyError struct {
	Penalty float64
}

func (e *DelayPenaltyError) Error() string {
	return fmt.Sprintf("online: delay penalty %g watt-minutes per minute is not a finite number ≥ 0", e.Penalty)
}

func checkDelayPenalty(p float64) error {
	if !(p >= 0) || math.IsInf(p, 1) {
		return &DelayPenaltyError{Penalty: p}
	}
	return nil
}

// FirstFitPolicy is the online counterpart of FFPS: servers are searched
// in a fresh random order per request and the first fitting one wins.
type FirstFitPolicy struct {
	rng   *rand.Rand
	order []int // the search order, redrawn in place per request
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
	// rand.Perm's inside-out shuffle, drawing the same numbers into a
	// buffer the policy keeps instead of a fresh slice per request.
	p.order = slices.Grow(p.order[:0], f.NumServers())[:f.NumServers()]
	for i := range p.order {
		j := p.rng.Intn(i + 1)
		p.order[i] = p.order[j]
		p.order[j] = i
	}
	for _, i := range p.order {
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
// `vmserve -policy`, the rows of `vmserve -replay` and the values of
// `vmalloc -online -algo`.
func PolicyNames() []string {
	return []string{"mincost", "delay-aware", "prefer-active", "ffps"}
}

// NewPolicy returns the policy registered under name. Only delay-aware
// reads delayPenalty (finite and ≥ 0) and only ffps reads seed.
func NewPolicy(name string, delayPenalty float64, seed int64) (Policy, error) {
	switch name {
	case "mincost":
		return &MinCostPolicy{}, nil
	case "delay-aware":
		if err := checkDelayPenalty(delayPenalty); err != nil {
			return nil, err
		}
		return &DelayAwareMinCostPolicy{PenaltyPerMinute: delayPenalty}, nil
	case "prefer-active":
		return &PreferActivePolicy{}, nil
	case "ffps":
		return NewFirstFitPolicy(seed), nil
	default:
		return nil, fmt.Errorf("unknown policy %q (want %s)", name, strings.Join(PolicyNames(), ", "))
	}
}
