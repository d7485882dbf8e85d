package experiments

import (
	"context"
	"fmt"

	"vmalloc/internal/baseline"
	"vmalloc/internal/core"
)

// scaling is an extension experiment (not in the paper, beyond its
// remark that "our algorithm is scalable"): it tracks MinCost's reduction
// against FFPS as the instance grows, servers fixed at half the VMs. The
// allocators' speed is the layer ledger's (BenchmarkOfflineMinCost and
// BenchmarkMinCostAllocate in BENCH_TRAJECTORY.json), not a wall time
// printed here.
func scaling(ctx context.Context, opts Options) (*Result, error) {
	sizes := []int{100, 250, 500, 1000, 2000}
	if opts.Quick {
		sizes = []int{100, 500}
	}
	t := Table{
		Name:    "Scaling",
		Caption: "single-run allocation (inter-arrival 2 min, mean length 50 min)",
		Header:  []string{"VMs", "servers", "horizon (min)", "reduction"},
	}
	for _, m := range sizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		inst, err := paperCampaign(m).instance(1)
		if err != nil {
			return nil, err
		}
		ours, err := core.NewMinCost().Allocate(ctx, inst)
		if err != nil {
			return nil, fmt.Errorf("scaling m=%d: %w", m, err)
		}
		ffps, err := baseline.NewFFPS(core.WithSeed(1)).Allocate(ctx, inst)
		if err != nil {
			return nil, fmt.Errorf("scaling m=%d ffps: %w", m, err)
		}
		t.Rows = append(t.Rows, []string{
			itoa(m), itoa(m / 2), itoa(inst.Horizon),
			pct(baseline.ReductionRatio(ours.Energy, ffps.Energy)),
		})
	}
	t.Notes = append(t.Notes,
		"MinCost reads one row per server class plus the used rows in CPU order up to the first that cannot fit, and prices each feasible server by walking its busy segments; the reduction ratio stays roughly flat with size (the paper's scalability claim)")
	return &Result{Tables: []Table{t}}, nil
}
