// Package baseline implements the comparison allocators: the paper's First
// Fit Power Saving (FFPS) baseline (§IV-A), and additional bin-packing
// baselines used for the ablation studies.
//
// All of them process VMs in increasing start-time order and, like the
// heuristic, have their final energy computed by the exact Eq. 7 evaluator,
// with servers switching off during idle segments whenever the transition
// cost is below the idle cost. Their constructors accept the same
// functional options as package core (core.WithSeed, core.WithParallelism);
// feasibility scans run on the shared scan engine and their placements are
// identical at every parallelism setting.
package baseline

import (
	"context"
	"math/rand"
	"time"

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
// core.WithSeed (default seed 1), making runs reproducible. It also
// honours core.WithParallelism for the per-request feasibility scan.
func NewFFPS(opts ...core.Option) *FFPS {
	return &FFPS{cfg: core.NewConfig(opts...)}
}

// Name implements core.Allocator.
func (f *FFPS) Name() string { return "FFPS" }

// Allocate implements core.Allocator.
func (f *FFPS) Allocate(ctx context.Context, inst model.Instance) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(f.cfg.Seed))
	order := make([]int, len(inst.Servers))
	for i := range order {
		order[i] = i
	}
	shuffle := func() {
		rng.Shuffle(len(order), func(a, b int) {
			order[a], order[b] = order[b], order[a]
		})
	}
	return firstFit(ctx, f.Name(), f.cfg, inst, order, shuffle)
}

// FirstFitSorted is first fit over servers sorted by a fixed key instead of
// a random shuffle. Keys are chosen so "better" servers come first.
type FirstFitSorted struct {
	key SortKey
	cfg core.Config
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
// ordering. It honours core.WithParallelism.
func NewFirstFitSorted(key SortKey, opts ...core.Option) *FirstFitSorted {
	return &FirstFitSorted{key: key, cfg: core.NewConfig(opts...)}
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	order := make([]int, len(inst.Servers))
	for i := range order {
		order[i] = i
	}
	servers := inst.Servers
	less := func(a, b int) bool {
		sa, sb := servers[a], servers[b]
		switch f.key {
		case ByCapacity:
			if sa.Capacity.CPU != sb.Capacity.CPU {
				return sa.Capacity.CPU > sb.Capacity.CPU
			}
		default:
			ea, eb := sa.PIdle/sa.Capacity.CPU, sb.PIdle/sb.Capacity.CPU
			if ea != eb {
				return ea < eb
			}
		}
		return sa.ID < sb.ID
	}
	insertionSort(order, less)
	return firstFit(ctx, f.Name(), f.cfg, inst, order, nil)
}

// BestFitCPU places each VM on the feasible server whose spare CPU over the
// VM's interval is smallest after placement — the classic best-fit
// bin-packing rule, energy-oblivious.
type BestFitCPU struct {
	cfg core.Config
}

var _ core.Allocator = (*BestFitCPU)(nil)

// NewBestFitCPU returns the best-fit baseline. It honours
// core.WithParallelism.
func NewBestFitCPU(opts ...core.Option) *BestFitCPU {
	return &BestFitCPU{cfg: core.NewConfig(opts...)}
}

// Name implements core.Allocator.
func (b *BestFitCPU) Name() string { return "BestFit/cpu" }

// Allocate implements core.Allocator.
func (b *BestFitCPU) Allocate(ctx context.Context, inst model.Instance) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	fleet := core.NewFleet(inst)
	scan := core.NewScanEngine(b.cfg.Parallelism, len(fleet.Servers))
	defer scan.Close()
	stats := scan.NewStats()
	placement := make(map[int]int, len(inst.VMs))
	for _, v := range core.SortVMsByStart(inst) {
		v := v
		best, err := scan.ArgMin(ctx, stats, len(fleet.Servers), func(i int) (float64, bool) {
			if !fleet.Fits(i, v) {
				return 0, false
			}
			return fleet.SpareCPU(i, v.Start, v.End) - v.Demand.CPU, true
		})
		if err != nil {
			return nil, err
		}
		if best < 0 {
			return nil, &core.UnplaceableError{VM: v}
		}
		scan.Commit(stats, func() { fleet.Commit(best, v) })
		placement[v.ID] = fleet.Servers[best].ID
	}
	res, err := core.FinishResult(b.Name(), inst, placement, fleet.ServersUsed())
	if err != nil {
		return nil, err
	}
	res.Stats = scan.FinishStats(stats, start)
	return res, nil
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

// Allocate implements core.Allocator.
func (r *RandomFit) Allocate(ctx context.Context, inst model.Instance) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	fleet := core.NewFleet(inst)
	placement := make(map[int]int, len(inst.VMs))
	feasible := make([]int, 0, len(inst.Servers))
	for _, v := range core.SortVMsByStart(inst) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		feasible = feasible[:0]
		for i := range fleet.Servers {
			if fleet.Fits(i, v) {
				feasible = append(feasible, i)
			}
		}
		if len(feasible) == 0 {
			return nil, &core.UnplaceableError{VM: v}
		}
		pick := feasible[rng.Intn(len(feasible))]
		fleet.Commit(pick, v)
		placement[v.ID] = fleet.Servers[pick].ID
	}
	return core.FinishResult(r.Name(), inst, placement, fleet.ServersUsed())
}

// firstFit runs the shared first-fit scan over servers in the given order
// of fleet indices. When reorder is non-nil it is invoked before every
// request (FFPS's per-request shuffle).
func firstFit(ctx context.Context, name string, cfg core.Config, inst model.Instance, order []int, reorder func()) (*core.Result, error) {
	start := time.Now()
	fleet := core.NewFleet(inst)
	scan := core.NewScanEngine(cfg.Parallelism, len(order))
	defer scan.Close()
	stats := scan.NewStats()
	placement := make(map[int]int, len(inst.VMs))
	for _, v := range core.SortVMsByStart(inst) {
		v := v
		if reorder != nil {
			reorder()
		}
		k, err := scan.First(ctx, stats, len(order), func(k int) bool {
			return fleet.Fits(order[k], v)
		})
		if err != nil {
			return nil, err
		}
		if k < 0 {
			return nil, &core.UnplaceableError{VM: v}
		}
		i := order[k]
		scan.Commit(stats, func() { fleet.Commit(i, v) })
		placement[v.ID] = fleet.Servers[i].ID
	}
	res, err := core.FinishResult(name, inst, placement, fleet.ServersUsed())
	if err != nil {
		return nil, err
	}
	res.Stats = scan.FinishStats(stats, start)
	return res, nil
}

// insertionSort sorts idx with the given less function. The server count is
// small; avoiding sort.Slice keeps the ordering logic trivially stable.
func insertionSort(idx []int, less func(a, b int) bool) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && less(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// ReductionRatio returns the paper's headline metric: the energy saved by
// ours relative to the baseline, (E_base − E_ours)/E_base.
func ReductionRatio(ours, base energy.Breakdown) float64 {
	if base.Total() == 0 {
		return 0
	}
	return (base.Total() - ours.Total()) / base.Total()
}
