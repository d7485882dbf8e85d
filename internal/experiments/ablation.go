package experiments

import "context"

// ablation is an extension experiment (not in the paper): it isolates the
// contribution of each design choice of the heuristic by comparing it to
// degraded variants and to the extra bin-packing baselines. Its lineup is
// the table's columns, by registry name.
func ablation(ctx context.Context, opts Options) (*Result, error) {
	lineup := []string{
		"mincost", "mincost-lookahead", "mincost-no-transition",
		"ffps", "firstfit", "bestfit", "randomfit",
		"minbusytime", "vectorfit", "worstfit",
	}
	t := Table{
		Name:    "Ablation",
		Caption: "total energy (kWmin) by allocator, 100 VMs / 50 servers, all types",
		Header:  []string{"inter-arrival (min)"},
	}
	c := paperCampaign(100)
	for _, c.interArr = range []float64{1, 4, 10} {
		sum, err := c.run(ctx, opts, lineup...)
		if err != nil {
			return nil, err
		}
		row := []string{num(c.interArr)}
		for _, a := range sum.Allocators {
			if len(t.Rows) == 0 {
				t.Header = append(t.Header, a.Allocator)
			}
			row = append(row, kwm(a.Energy))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"MinCost/no-transition selects by run cost W_ij only; the gap to MinCost is the value of idle/transition awareness",
		"MinCost/lookahead adds one-step lookahead (the next VM priced on every server once per VM: O(n), as the greedy rule); its gap to MinCost measures the greedy rule's myopia",
		"MinBusyTime/VectorFit/WorstFit are related-work objectives: busy-time minimisation, vector packing, load spreading")
	return &Result{Tables: []Table{t}}, nil
}
