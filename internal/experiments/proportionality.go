package experiments

import (
	"context"
	"fmt"

	"vmalloc/internal/baseline"
	"vmalloc/internal/core"
	"vmalloc/internal/energy"
	"vmalloc/internal/model"
	"vmalloc/internal/report"
)

// proportionality is an extension experiment (not in the paper): it
// stress-tests the paper's premise against the energy-proportionality
// argument of its own reference [14] (Barroso & Hölzle). Both allocators
// decide under the paper's affine model, but the resulting placements are
// re-priced under power curves whose idle draw is progressively scaled
// away (β) and whose load term is bent (γ). As servers approach perfect
// proportionality the consolidation savings must collapse toward the
// transition-cost difference — quantifying how much of the paper's result
// is a statement about 2013-era hardware.
func proportionality(ctx context.Context, opts Options) (*Result, error) {
	betas := []float64{0, 0.25, 0.5, 0.75, 1}
	if opts.Quick {
		betas = []float64{0, 0.5, 1}
	}
	gammas := []float64{0.7, 1, 1.4}
	seeds := opts.seeds()

	type key struct{ beta, gamma float64 }
	red := make(map[key]float64, len(betas)*len(gammas))
	err := paperInstances(ctx, opts, func(seed int64, inst model.Instance) error {
		ours, err := core.NewMinCost().Allocate(ctx, inst)
		if err != nil {
			return err
		}
		ffps, err := baseline.NewFFPS(core.WithSeed(seed)).Allocate(ctx, inst)
		if err != nil {
			return err
		}
		for _, beta := range betas {
			for _, gamma := range gammas {
				c := energy.Curve{IdleScale: beta, Exponent: gamma}
				a, err := energy.CurveEvaluate(inst, ours.Placement, c)
				if err != nil {
					return fmt.Errorf("β=%g γ=%g: %w", beta, gamma, err)
				}
				b, err := energy.CurveEvaluate(inst, ffps.Placement, c)
				if err != nil {
					return err
				}
				red[key{beta, gamma}] += (1 - a.Total()/b.Total()) / float64(seeds)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("proportionality: %w", err)
	}
	t := Table{
		Name: "Proportionality",
		Caption: "reduction ratio of the affine-optimised placements re-priced under " +
			"P(u) = P_idle(1−β) + (P_peak−P_idle(1−β))·u^γ (100 VMs, 50 servers, inter-arrival 2 min)",
		Header: []string{"idle scale β", "γ=0.7 (concave)", "γ=1 (paper)", "γ=1.4 (convex)"},
	}
	chart := pctChart("Savings vs energy-proportionality (γ=1)",
		"idle power scaled away (β)", "energy reduction ratio")
	var ys []float64
	for _, beta := range betas {
		row := []string{num(beta)}
		for _, gamma := range gammas {
			row = append(row, pct(red[key{beta, gamma}]))
		}
		t.Rows = append(t.Rows, row)
		ys = append(ys, red[key{beta, 1}])
	}
	chart.Series = append(chart.Series, report.Series{Name: "MinCost vs FFPS", X: betas, Y: ys})
	t.Notes = append(t.Notes,
		"β=0, γ=1 is the paper's model; β=1 is a perfectly energy-proportional fleet where only transition costs separate the allocators",
		"the placements themselves are held fixed (decided under the affine model), isolating the hardware assumption")
	return &Result{Tables: []Table{t}, Charts: []report.Chart{chart}}, nil
}
