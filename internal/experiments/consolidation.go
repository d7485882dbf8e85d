package experiments

import (
	"context"
	"fmt"
	"slices"

	"vmalloc/internal/core"
	"vmalloc/internal/migration"
	"vmalloc/internal/model"
)

// consolidation is an extension experiment (not in the paper): it layers
// the migration-based consolidator (related work §V [6], [18]) on top of
// both FFPS and MinCost placements, measuring how much of the allocation
// heuristic's advantage migration can recover — and what it costs in
// moves.
func consolidation(ctx context.Context, opts Options) (*Result, error) {
	intervals := []int{10, 20, 40}
	if opts.Quick {
		intervals = []int{20}
	}
	t := Table{
		Name: "Consolidation",
		Caption: "greedy migration (2 Wmin/GB) on top of each base placement; " +
			"100 VMs / 50 servers, inter-arrival 2 min",
		Header: []string{
			"epoch (min)", "base", "base energy (kWmin)", "after migration (kWmin)",
			"net saving", "moves",
		},
	}
	seeds := opts.seeds()
	var ffpsSavings []float64
	for _, interval := range intervals {
		for _, base := range []string{"ffps", "mincost"} {
			var baseSum, finalSum float64
			var moves int
			name, err := basePlacements(ctx, opts, base, func(_ int64, inst model.Instance, placed *core.Result) error {
				res, err := (&migration.Consolidator{
					Config: migration.Config{Interval: interval, CostPerGB: 2},
				}).Plan(inst, placed.Placement)
				if err != nil {
					return err
				}
				baseSum += res.Base.Total()
				finalSum += res.Final.Total() + res.MigrationEnergy
				moves += len(res.Moves)
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("consolidation %s interval=%d: %w", base, interval, err)
			}
			saving := 1 - finalSum/baseSum
			if base == "ffps" {
				ffpsSavings = append(ffpsSavings, saving)
			}
			t.Rows = append(t.Rows, []string{
				itoa(interval), name,
				kwm(baseSum / float64(seeds)), kwm(finalSum / float64(seeds)),
				pct(saving), itoa(moves / seeds),
			})
		}
	}
	if len(ffpsSavings) > 1 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"FFPS recovers %.0f–%.0f%% via migration, but stays behind allocating well upfront (MinCost rows)",
			100*slices.Min(ffpsSavings), 100*slices.Max(ffpsSavings)))
	}
	t.Notes = append(t.Notes,
		"migration on top of MinCost moves little: a good initial allocation leaves consolidation no slack")
	return &Result{Tables: []Table{t}}, nil
}
