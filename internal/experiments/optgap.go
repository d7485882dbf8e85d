package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"vmalloc/internal/baseline"
	"vmalloc/internal/core"
	"vmalloc/internal/ilp"
	"vmalloc/internal/model"
	"vmalloc/internal/stats"
)

// optGap is an extension experiment (not in the paper): on small random
// instances it compares the heuristic against the exact branch-and-bound
// optimum of the paper's ILP (Eq. 8–14) and against the LP-relaxation
// lower bound.
func optGap(ctx context.Context, opts Options) (*Result, error) {
	trials := 20
	if opts.Quick {
		trials = 5
	}
	t := Table{
		Name:    "Optimality gap",
		Caption: "MinCost and FFPS vs branch-and-bound optimum (6 VMs, 3 servers per trial)",
		Header: []string{
			"trial", "optimum (Wmin)", "LP bound (Wmin)",
			"MinCost gap", "FFPS gap", "B&B nodes",
		},
	}
	rng := rand.New(rand.NewSource(1))
	var gaps, ffpsGaps []float64
	for trial := 1; trial <= trials; trial++ {
		inst, err := smallFeasibleInstance(ctx, rng)
		if err != nil {
			return nil, err
		}
		placement, opt, st, err := (&ilp.BranchAndBound{}).Solve(ctx, inst)
		if err != nil {
			return nil, fmt.Errorf("optgap trial %d: %w", trial, err)
		}
		if err := ilp.CheckPlacement(inst, placement); err != nil {
			return nil, fmt.Errorf("optgap trial %d: optimum infeasible: %w", trial, err)
		}
		mdl, err := ilp.BuildModel(inst)
		if err != nil {
			return nil, err
		}
		bound, err := mdl.LowerBound()
		if err != nil {
			return nil, fmt.Errorf("optgap trial %d: %w", trial, err)
		}
		heur, err := core.NewMinCost().Allocate(ctx, inst)
		if err != nil {
			return nil, err
		}
		ffps, err := baseline.NewFFPS(core.WithSeed(int64(trial))).Allocate(ctx, inst)
		if err != nil {
			return nil, err
		}
		gap := heur.Energy.Total()/opt - 1
		fgap := ffps.Energy.Total()/opt - 1
		gaps = append(gaps, gap)
		ffpsGaps = append(ffpsGaps, fgap)
		t.Rows = append(t.Rows, []string{
			itoa(trial), f2(opt), f2(bound), pct(gap), pct(fgap), itoa(st.Nodes),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean MinCost gap %s (max %s); mean FFPS gap %s",
			pct(stats.Mean(gaps)), pct(slices.Max(gaps)), pct(stats.Mean(ffpsGaps))))
	return &Result{Tables: []Table{t}}, nil
}

// smallFeasibleInstance draws 6 standard VMs on 3 servers, retrying until
// the heuristic can place it (so optimum and heuristic are comparable).
func smallFeasibleInstance(ctx context.Context, rng *rand.Rand) (model.Instance, error) {
	types := model.VMTypesByClass(model.ClassStandard)
	srvTypes := model.ServerTypeCatalog()[:3]
	for attempt := 0; attempt < 100; attempt++ {
		vms := make([]model.VM, 6)
		for j := range vms {
			vt := types[rng.Intn(len(types))]
			start := 1 + rng.Intn(20)
			vms[j] = model.VM{
				ID: j + 1, Type: vt.Name, Demand: vt.Resources(),
				Start: start, End: start + 1 + rng.Intn(15),
			}
		}
		servers := make([]model.Server, 3)
		for i := range servers {
			servers[i] = srvTypes[i].NewServer(i+1, 1)
		}
		inst := model.NewInstance(vms, servers)
		if _, err := core.NewMinCost().Allocate(ctx, inst); err == nil {
			return inst, nil
		}
	}
	return model.Instance{}, fmt.Errorf("experiments: no feasible small instance after 100 draws")
}
