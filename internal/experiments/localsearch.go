package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"vmalloc/internal/core"
	"vmalloc/internal/ilp"
	"vmalloc/internal/model"
	"vmalloc/internal/search"
	"vmalloc/internal/stats"
)

// localSearch is an extension experiment (not in the paper): it measures
// how much a relocation+swap local search adds on top of each allocator,
// and — on exhaustively solvable instances — how close MinCost+search gets
// to the ILP optimum.
func localSearch(ctx context.Context, opts Options) (*Result, error) {
	seeds := opts.seeds()
	t := Table{
		Name:    "Local search at paper scale",
		Caption: "relocation+swap search on each base placement (100 VMs, 50 servers, inter-arrival 2 min)",
		Header: []string{
			"base", "base energy (kWmin)", "after search (kWmin)",
			"improvement", "relocations", "swaps",
		},
	}
	for _, base := range []string{"ffps", "bestfit", "mincost"} {
		var baseSum, finalSum float64
		var relocs, swaps int
		name, err := basePlacements(ctx, opts, base, func(seed int64, inst model.Instance, placed *core.Result) error {
			improved, final, st, err := (&search.Improver{Seed: seed}).Improve(inst, placed.Placement)
			if err != nil {
				return err
			}
			if err := ilp.CheckPlacement(inst, improved); err != nil {
				return err
			}
			baseSum += placed.Energy.Total()
			finalSum += final
			relocs += st.Relocations
			swaps += st.Swaps
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("localsearch %s: %w", base, err)
		}
		t.Rows = append(t.Rows, []string{
			name,
			kwm(baseSum / float64(seeds)), kwm(finalSum / float64(seeds)),
			pct(1 - finalSum/baseSum),
			itoa(relocs / seeds), itoa(swaps / seeds),
		})
	}
	t.Notes = append(t.Notes,
		"search recovers most of a bad placement but adds little to MinCost: the greedy rule already sits near a local optimum")

	// Against the exact optimum on tiny instances.
	trials := 15
	if opts.Quick {
		trials = 5
	}
	t2 := Table{
		Name:    "Local search vs optimum",
		Caption: "6 VMs / 3 servers per trial (exhaustively solvable)",
		Header:  []string{"method", "mean gap to optimum", "max gap"},
	}
	rng := rand.New(rand.NewSource(2))
	var heurGaps, searchGaps []float64
	for trial := 0; trial < trials; trial++ {
		inst, err := smallFeasibleInstance(ctx, rng)
		if err != nil {
			return nil, err
		}
		_, opt, _, err := (&ilp.BranchAndBound{}).Solve(ctx, inst)
		if err != nil {
			return nil, err
		}
		heur, err := core.NewMinCost().Allocate(ctx, inst)
		if err != nil {
			return nil, err
		}
		_, improved, _, err := (&search.Improver{Seed: int64(trial)}).Improve(inst, heur.Placement)
		if err != nil {
			return nil, err
		}
		heurGaps = append(heurGaps, heur.Energy.Total()/opt-1)
		searchGaps = append(searchGaps, improved/opt-1)
	}
	t2.Rows = append(t2.Rows,
		[]string{"MinCost", pct(stats.Mean(heurGaps)), pct(slices.Max(heurGaps))},
		[]string{"MinCost + local search", pct(stats.Mean(searchGaps)), pct(slices.Max(searchGaps))},
	)
	return &Result{Tables: []Table{t, t2}}, nil
}
