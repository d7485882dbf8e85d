package core

import (
	"context"

	"vmalloc/internal/model"
)

// Lookahead is a one-step lookahead extension of the paper's heuristic
// (in the spirit of its future-work discussion): when placing VM j it
// tentatively tries every feasible server and adds the best achievable
// incremental cost of the *next* VM under that choice, picking the pair
// minimiser. It costs O(n²) evaluations per VM instead of O(n) and
// quantifies how myopic the greedy rule is.
//
// Under WithParallelism(n > 1) the outer candidate loop fans out over the
// scan worker pool, each worker evaluating the full inner loop for its
// candidate servers.
type Lookahead struct {
	cfg Config
}

var _ Allocator = (*Lookahead)(nil)

// NewLookahead returns the one-step lookahead allocator. It honours
// WithParallelism; other options are ignored.
func NewLookahead(opts ...Option) *Lookahead {
	return &Lookahead{cfg: NewConfig(opts...)}
}

// Name implements Allocator.
func (*Lookahead) Name() string { return "MinCost/lookahead" }

// Allocate implements Allocator.
func (l *Lookahead) Allocate(ctx context.Context, inst model.Instance) (*Result, error) {
	return Run(ctx, l.Name(), l.cfg, inst, func(s *Scan, rest []model.VM) (int, error) {
		return s.ArgMin(lookaheadScore(s.Fleet, rest))
	})
}

// lookaheadScore returns the rule's price of placing rest[0] on server
// index i: its incremental cost there plus, when a VM follows, the cheapest
// incremental cost that VM can then have anywhere.
func lookaheadScore(fleet *Fleet, rest []model.VM) func(i int) (float64, bool) {
	v := rest[0]
	return func(i int) (float64, bool) {
		if !fleet.Fits(i, v) {
			return 0, false
		}
		score := fleet.State(i).IncrementalCost(v)
		if len(rest) > 1 {
			score += bestNextCost(fleet, i, v, rest[1])
		}
		return score, true
	}
}

// bestNextCost returns the cheapest incremental cost of `next` assuming
// `v` has been placed on server index chosen. The tentative placement is
// simulated without mutating the fleet: for the chosen server the
// incremental cost of `next` is evaluated on a preview state holding both
// VMs; other servers are unaffected. It only reads shared fleet state, so
// scan workers may call it concurrently for distinct candidates.
func bestNextCost(fleet *Fleet, chosen int, v, next model.VM) float64 {
	best := -1.0
	for i := range fleet.Servers {
		var (
			inc float64
			ok  bool
		)
		if i == chosen {
			inc, ok = previewPairCost(fleet, i, v, next)
		} else if fleet.Fits(i, next) {
			inc, ok = fleet.State(i).IncrementalCost(next), true
		}
		if ok && (best < 0 || inc < best) {
			best = inc
		}
	}
	if best < 0 {
		// The next VM would be unplaceable under this choice: penalise the
		// branch heavily rather than failing (the next iteration will
		// report the real error if every branch is like this).
		return 1e18
	}
	return best
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
