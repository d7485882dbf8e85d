package core

import (
	"context"
	"math"

	"vmalloc/internal/model"
)

// Lookahead is a one-step lookahead extension of the paper's heuristic
// (in the spirit of its future-work discussion): when placing VM j it
// tentatively tries every feasible server and adds the best achievable
// incremental cost of the *next* VM under that choice, picking the pair
// minimiser. It prices the next VM on every server once per VM, not once
// per candidate, so it is O(n) per VM as the greedy rule is, and quantifies
// how myopic that rule is.
type Lookahead struct{}

var _ Allocator = (*Lookahead)(nil)

// NewLookahead returns the one-step lookahead allocator. It reads no
// option.
func NewLookahead(...Option) *Lookahead { return &Lookahead{} }

// Name implements Allocator.
func (*Lookahead) Name() string { return "MinCost/lookahead" }

// Allocate implements Allocator.
func (l *Lookahead) Allocate(ctx context.Context, inst model.Instance) (*Result, error) {
	return Run(ctx, l.Name(), inst, func(s *Scan, rest []model.VM) (int, error) {
		return s.ArgMin(lookaheadScore(s.Fleet, rest))
	})
}

// lookaheadScore returns the rule's price of placing rest[0] on server
// index i: its incremental cost there plus, when a VM follows, the cheapest
// incremental cost that VM can then have anywhere. Placing rest[0] on i
// changes what the next VM costs on i and nowhere else, so the minimum over
// the other servers is the fleet's cheapest server for the next VM, or its
// second cheapest when the cheapest is i: both are found once, here, and a
// candidate adds only its own pair cost.
func lookaheadScore(fleet *Fleet, rest []model.VM) func(i int) (float64, bool) {
	v, last := rest[0], len(rest) == 1
	var next model.VM
	// +Inf stands for "no such server".
	cheapest, second, cheapestAt := math.Inf(1), math.Inf(1), -1
	if !last {
		next = rest[1]
		for j := range fleet.Servers {
			if !fleet.Fits(j, next) {
				continue
			}
			switch inc := fleet.State(j).IncrementalCost(next); {
			case inc < cheapest:
				cheapest, second, cheapestAt = inc, cheapest, j
			case inc < second:
				second = inc
			}
		}
	}
	return func(i int) (float64, bool) {
		if !fleet.Fits(i, v) {
			return 0, false
		}
		score := fleet.State(i).IncrementalCost(v)
		if last {
			return score, true
		}
		best := cheapest
		if i == cheapestAt {
			best = second
		}
		if pair, ok := previewPairCost(fleet, i, v, next); ok && pair < best {
			best = pair
		}
		if math.IsInf(best, 1) {
			// The next VM would be unplaceable under this choice: penalise
			// the branch heavily rather than failing (the next iteration
			// will report the real error if every branch is like this).
			best = 1e18
		}
		return score + best, true
	}
}

// previewPairCost evaluates the incremental cost of `next` on server i
// given `v` already placed there, without mutating the fleet. The
// capacity check is conservative (it requires room for both VMs across
// next's whole window); a rejected pair only makes the lookahead skip
// that branch, never produces an infeasible placement. Returns ok=false
// if the pair does not fit together.
func previewPairCost(fleet *Fleet, i int, v, next model.VM) (float64, bool) {
	s := fleet.Servers[i]
	if !next.Demand.Fits(s.Capacity) || !v.Demand.Fits(s.Capacity) {
		return 0, false
	}
	// Capacity: existing usage + v + next over next's window.
	overlap := v.Start <= next.End && next.Start <= v.End
	needCPU, needMem := next.Demand.CPU, next.Demand.Mem
	if overlap {
		needCPU += v.Demand.CPU
		needMem += v.Demand.Mem
	}
	if fleet.SpareCPU(i, next.Start) < needCPU || fleet.SpareMem(i, next.Start) < needMem {
		return 0, false
	}
	st := fleet.State(i)
	withV := st.CostWith(v)
	// Cost with both: clone the busy set through the public preview API by
	// exploiting additivity of run costs and recomputing segments.
	pair := st.Clone()
	pair.Add(v)
	return pair.CostWith(next) - withV, true
}
