// Package baseline implements the comparison allocators: the paper's First
// Fit Power Saving (FFPS) baseline (§IV-A), and additional bin-packing
// baselines used for the ablation studies.
//
// Each is a placement rule run by core.Run, so all of them process VMs in
// increasing start-time order and, like the heuristic, have their final
// energy computed by the exact Eq. 7 evaluator, with servers switching off
// during idle segments whenever the transition cost is below the idle cost.
// Their constructors accept the same functional options as package core;
// the randomised ones read core.WithSeed, the others none.
package baseline

import (
	"cmp"
	"context"
	"math/rand"
	"slices"

	"vmalloc/internal/core"
	"vmalloc/internal/energy"
	"vmalloc/internal/model"
)

// FFPS is the paper's baseline (§IV-A): VMs are taken in increasing
// start-time order and each is "allocated on the first searched server
// which can provide sufficient resources" — the servers are searched in
// random order for every request. (Shuffling once per run instead would
// turn first fit into a strongly consolidating policy and invert the
// paper's load trends; see DESIGN.md.)
type FFPS struct {
	cfg core.Config
}

var _ core.Allocator = (*FFPS)(nil)

// NewFFPS returns an FFPS allocator whose server search order is driven by
// core.WithSeed (default seed 1), making runs reproducible.
func NewFFPS(opts ...core.Option) *FFPS {
	return &FFPS{cfg: core.NewConfig(opts...)}
}

// Name implements core.Allocator.
func (f *FFPS) Name() string { return "FFPS" }

// Allocate implements core.Allocator.
func (f *FFPS) Allocate(ctx context.Context, inst model.Instance) (*core.Result, error) {
	rng := rand.New(rand.NewSource(f.cfg.Seed))
	order := serverIndices(inst)
	return core.Run(ctx, f.Name(), inst, func(s *core.Scan, rest []model.VM) (int, error) {
		rng.Shuffle(len(order), func(a, b int) {
			order[a], order[b] = order[b], order[a]
		})
		return firstFit(s, order, rest[0])
	})
}

// FirstFitSorted is first fit over servers sorted by a fixed key instead of
// a random shuffle. Keys are chosen so "better" servers come first.
type FirstFitSorted struct {
	key SortKey
}

var _ core.Allocator = (*FirstFitSorted)(nil)

// SortKey selects the server ordering of FirstFitSorted.
type SortKey int

// Supported server orderings.
const (
	// ByEfficiency orders servers by idle power per CPU capacity,
	// ascending: the most energy-proportional servers first.
	ByEfficiency SortKey = iota + 1
	// ByCapacity orders servers by CPU capacity, descending: the biggest
	// bins first (classic first-fit-decreasing flavour).
	ByCapacity
)

// NewFirstFitSorted returns a first-fit allocator over a fixed server
// ordering. It reads no option.
func NewFirstFitSorted(key SortKey, _ ...core.Option) *FirstFitSorted {
	return &FirstFitSorted{key: key}
}

// Name implements core.Allocator.
func (f *FirstFitSorted) Name() string {
	switch f.key {
	case ByCapacity:
		return "FirstFit/capacity"
	default:
		return "FirstFit/efficiency"
	}
}

// Allocate implements core.Allocator.
func (f *FirstFitSorted) Allocate(ctx context.Context, inst model.Instance) (*core.Result, error) {
	order := serverIndices(inst)
	// Both keys end in the server ID, a strict total order.
	slices.SortFunc(order, func(a, b int) int {
		sa, sb := inst.Servers[a], inst.Servers[b]
		if f.key == ByCapacity {
			return cmp.Or(cmp.Compare(sb.Capacity.CPU, sa.Capacity.CPU), cmp.Compare(sa.ID, sb.ID))
		}
		return cmp.Or(cmp.Compare(sa.PIdle/sa.Capacity.CPU, sb.PIdle/sb.Capacity.CPU), cmp.Compare(sa.ID, sb.ID))
	})
	return core.Run(ctx, f.Name(), inst, func(s *core.Scan, rest []model.VM) (int, error) {
		return firstFit(s, order, rest[0])
	})
}

// BestFitCPU places each VM on the feasible server whose spare CPU over the
// VM's interval is smallest after placement — the classic best-fit
// bin-packing rule, energy-oblivious.
type BestFitCPU struct{}

var _ core.Allocator = (*BestFitCPU)(nil)

// NewBestFitCPU returns the best-fit baseline. It reads no option.
func NewBestFitCPU(...core.Option) *BestFitCPU { return &BestFitCPU{} }

// Name implements core.Allocator.
func (b *BestFitCPU) Name() string { return "BestFit/cpu" }

// Allocate implements core.Allocator.
func (b *BestFitCPU) Allocate(ctx context.Context, inst model.Instance) (*core.Result, error) {
	return core.Run(ctx, b.Name(), inst, func(s *core.Scan, rest []model.VM) (int, error) {
		fleet, v := s.Fleet, rest[0]
		return s.ArgMin(func(i int) (float64, bool) {
			if !fleet.Fits(i, v) {
				return 0, false
			}
			return fleet.SpareCPU(i, v.Start) - v.Demand.CPU, true
		})
	})
}

// RandomFit places each VM on a uniformly random feasible server — the
// weakest sensible baseline.
type RandomFit struct {
	cfg core.Config
}

var _ core.Allocator = (*RandomFit)(nil)

// NewRandomFit returns a random-fit allocator driven by core.WithSeed
// (default seed 1).
func NewRandomFit(opts ...core.Option) *RandomFit {
	return &RandomFit{cfg: core.NewConfig(opts...)}
}

// Name implements core.Allocator.
func (r *RandomFit) Name() string { return "RandomFit" }

// Allocate implements core.Allocator. The draw is over the whole feasible
// list, so the rule builds it itself instead of scanning for one winner.
func (r *RandomFit) Allocate(ctx context.Context, inst model.Instance) (*core.Result, error) {
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	feasible := make([]int, 0, len(inst.Servers))
	return core.Run(ctx, r.Name(), inst, func(s *core.Scan, rest []model.VM) (int, error) {
		feasible = feasible[:0]
		for i := range s.Fleet.Servers {
			if s.Fleet.Fits(i, rest[0]) {
				feasible = append(feasible, i)
			}
		}
		if len(feasible) == 0 {
			return -1, nil
		}
		return feasible[rng.Intn(len(feasible))], nil
	})
}

// serverIndices returns the fleet indices 0..n-1, the search order the
// first-fit allocators permute.
func serverIndices(inst model.Instance) []int {
	order := make([]int, len(inst.Servers))
	for i := range order {
		order[i] = i
	}
	return order
}

// firstFit is the first-fit rule: the first server, in the given order of
// fleet indices, that v fits.
func firstFit(s *core.Scan, order []int, v model.VM) (int, error) {
	k, err := s.First(func(k int) bool { return s.Fleet.Fits(order[k], v) })
	if k < 0 {
		return -1, err
	}
	return order[k], nil
}

// ReductionRatio returns the paper's headline metric: the energy saved by
// ours relative to the baseline, (E_base − E_ours)/E_base.
func ReductionRatio(ours, base energy.Breakdown) float64 {
	if base.Total() == 0 {
		return 0
	}
	return (base.Total() - ours.Total()) / base.Total()
}
