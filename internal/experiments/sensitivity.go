package experiments

import (
	"context"
	"fmt"

	"vmalloc/internal/metrics"
	"vmalloc/internal/model"
	"vmalloc/internal/stats"
)

// sensitivity is an extension experiment (not in the paper): it varies
// the fleet composition and the VM class mix around the default setting
// and reports the reduction ratio with 95% confidence intervals. It
// probes the paper's §I claim that server non-homogeneity is what makes
// the problem interesting: on a homogeneous fleet the heuristic has fewer
// ways to beat first fit.
func sensitivity(ctx context.Context, opts Options) (*Result, error) {
	if opts.Seeds == 0 && !opts.Quick {
		opts.Seeds = 10 // CIs need a few more samples than the paper's 5 runs
	}
	type row struct {
		name    string
		classes []model.VMClass
		types   []string
	}
	res := &Result{}
	for _, set := range []struct {
		t    Table
		util func(metrics.Utilization) float64
		rows []row
	}{
		{
			Table{
				Name: "Fleet composition",
				Caption: "reduction ratio vs FFPS by fleet mix (100 standard VMs, inter-arrival 2 min; " +
					"standard VMs fit every server type, so the fleet sweep stays feasible)",
				Header: []string{"fleet", "reduction ratio", "95% CI", "ours CPU util", "FFPS CPU util"},
				Notes: []string{
					"the homogeneous fleet removes the which-server-is-efficient dimension; the remaining savings come from temporal packing alone",
				},
			},
			func(u metrics.Utilization) float64 { return u.CPU },
			[]row{
				{"all five types", standardClasses, nil},
				{"small only (types 1-3)", standardClasses, smallServerTypes},
				{"large only (types 3-5)", standardClasses, []string{"type-3", "type-4", "type-5"}},
				{"homogeneous (type-3)", standardClasses, []string{"type-3"}},
			},
		},
		{
			Table{
				Name:    "VM class mix",
				Caption: "reduction ratio vs FFPS by workload class (100 VMs, all server types, inter-arrival 2 min)",
				Header:  []string{"workload", "reduction ratio", "95% CI", "ours mem util", "FFPS mem util"},
			},
			func(u metrics.Utilization) float64 { return u.Mem },
			[]row{
				{"all classes", nil, nil},
				{"standard only", standardClasses, nil},
				{"memory-intensive only", []model.VMClass{model.ClassMemoryIntensive}, nil},
				{"cpu-intensive only", []model.VMClass{model.ClassCPUIntensive}, nil},
			},
		},
	} {
		for _, r := range set.rows {
			c := paperCampaign(100)
			c.classes, c.serverTypes = r.classes, r.types
			sum, err := c.run(ctx, opts)
			if err != nil {
				return nil, fmt.Errorf("sensitivity %q: %w", r.name, err)
			}
			ci := stats.MeanCI95(sum.ReductionRatios())
			set.t.Rows = append(set.t.Rows, []string{
				r.name, pct(ci.Mean),
				fmt.Sprintf("[%s, %s]", pct(ci.Low), pct(ci.High)),
				pct(set.util(sum.Allocators[0].Utilization)), pct(set.util(sum.Allocators[1].Utilization)),
			})
		}
		res.Tables = append(res.Tables, set.t)
	}
	return res, nil
}
