package baseline

import (
	"context"

	"vmalloc/internal/core"
	"vmalloc/internal/model"
)

// MinBusyTime implements the objective of the fixed-interval scheduling
// line of related work (paper §V [9], [10]): place each VM on the feasible
// server whose total busy time grows the least, ignoring power parameters
// entirely. It isolates how much of the paper's savings comes from
// modelling energy rather than just consolidating time.
type MinBusyTime struct{}

var _ core.Allocator = (*MinBusyTime)(nil)

// NewMinBusyTime returns the busy-time-minimising comparator. Like the
// other two in this file it reads no option.
func NewMinBusyTime(...core.Option) *MinBusyTime { return &MinBusyTime{} }

// Name implements core.Allocator.
func (*MinBusyTime) Name() string { return "MinBusyTime" }

// Allocate implements core.Allocator.
func (a *MinBusyTime) Allocate(ctx context.Context, inst model.Instance) (*core.Result, error) {
	return core.Run(ctx, a.Name(), inst, func(s *core.Scan, rest []model.VM) (int, error) {
		fleet, v := s.Fleet, rest[0]
		return s.ArgMin(func(i int) (float64, bool) {
			if !fleet.Fits(i, v) {
				return 0, false
			}
			return float64(fleet.State(i).BusyGrowth(v)), true
		})
	})
}

// VectorFit is the dot-product heuristic from the vector bin-packing
// literature the multi-resource placement work builds on (paper §V [7],
// [8]): place each VM on the feasible server whose remaining (CPU, memory)
// vector over the VM's interval aligns best with the demand vector,
// balancing the two resources instead of minimising energy.
type VectorFit struct{}

var _ core.Allocator = (*VectorFit)(nil)

// NewVectorFit returns the dot-product comparator.
func NewVectorFit(...core.Option) *VectorFit { return &VectorFit{} }

// Name implements core.Allocator.
func (*VectorFit) Name() string { return "VectorFit" }

// Allocate implements core.Allocator.
func (a *VectorFit) Allocate(ctx context.Context, inst model.Instance) (*core.Result, error) {
	return core.Run(ctx, a.Name(), inst, func(s *core.Scan, rest []model.VM) (int, error) {
		fleet, v := s.Fleet, rest[0]
		return s.ArgMin(func(i int) (float64, bool) {
			if !fleet.Fits(i, v) {
				return 0, false
			}
			c := fleet.Servers[i].Capacity
			// Normalised demand · normalised spare, higher = better
			// aligned (fills the scarce dimension proportionally); negated,
			// because the scan minimises.
			dCPU := v.Demand.CPU / c.CPU
			dMem := v.Demand.Mem / c.Mem
			spareCPU := fleet.SpareCPU(i, v.Start) / c.CPU
			spareMem := fleet.SpareMem(i, v.Start) / c.Mem
			return -(dCPU*spareCPU + dMem*spareMem), true
		})
	})
}

// WorstFit spreads load: each VM goes to the feasible server with the MOST
// spare CPU over its interval. It is the anti-consolidation baseline —
// roughly what a load balancer oblivious to energy would do — and bounds
// the cost of spreading.
type WorstFit struct{}

var _ core.Allocator = (*WorstFit)(nil)

// NewWorstFit returns the spreading comparator.
func NewWorstFit(...core.Option) *WorstFit { return &WorstFit{} }

// Name implements core.Allocator.
func (*WorstFit) Name() string { return "WorstFit" }

// Allocate implements core.Allocator.
func (a *WorstFit) Allocate(ctx context.Context, inst model.Instance) (*core.Result, error) {
	return core.Run(ctx, a.Name(), inst, func(s *core.Scan, rest []model.VM) (int, error) {
		fleet, v := s.Fleet, rest[0]
		return s.ArgMin(func(i int) (float64, bool) {
			if !fleet.Fits(i, v) {
				return 0, false
			}
			return -fleet.SpareCPU(i, v.Start), true
		})
	})
}
