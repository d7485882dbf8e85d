package experiments

import (
	"context"
	"fmt"

	"vmalloc/internal/baseline"
	"vmalloc/internal/core"
	"vmalloc/internal/metrics"
	"vmalloc/internal/model"
	"vmalloc/internal/report"
	"vmalloc/internal/workload"
)

// diurnalInstance is the paper campaign with its flat Poisson arrivals
// bent into a 480-minute day/night cycle of the same average rate.
func diurnalInstance(peakToTrough float64, seed int64) (model.Instance, error) {
	w, f := paperCampaign(100).specs()
	return workload.GenerateDiurnal(workload.DiurnalSpec{
		NumVMs: w.NumVMs, MeanInterArrival: w.MeanInterArrival, MeanLength: w.MeanLength,
		PeakToTrough: peakToTrough, Period: 480,
	}, f, seed)
}

// diurnal is an extension experiment (not in the paper): it replaces the
// flat Poisson arrivals with a day/night cycle of the same average rate —
// the load shape the dynamic right-sizing literature (§V [4]) targets —
// and asks whether the paper's conclusions survive time-varying load.
func diurnal(ctx context.Context, opts Options) (*Result, error) {
	ratios := []float64{1, 2, 4, 8}
	if opts.Quick {
		ratios = []float64{1, 4}
	}
	t := Table{
		Name: "Diurnal",
		Caption: "reduction ratio and peak concurrency under a 480-min arrival cycle " +
			"(100 VMs, 50 servers, day-average inter-arrival 2 min)",
		Header: []string{
			"peak/trough rate", "reduction ratio", "ours energy (kWmin)",
			"FFPS energy (kWmin)", "peak concurrency",
		},
	}
	for _, ratio := range ratios {
		var oursSum, ffpsSum float64
		peak := 0
		placedSeeds := 0
		for seed := int64(1); seed <= int64(opts.seeds()); seed++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			inst, err := diurnalInstance(ratio, seed)
			if err != nil {
				return nil, err
			}
			ours, err1 := core.NewMinCost().Allocate(ctx, inst)
			ffps, err2 := baseline.NewFFPS(core.WithSeed(seed)).Allocate(ctx, inst)
			if err1 != nil || err2 != nil {
				continue // the peakiest draws can exceed fleet capacity
			}
			oursSum += ours.Energy.Total()
			ffpsSum += ffps.Energy.Total()
			peak = max(peak, metrics.PeakConcurrency(inst))
			placedSeeds++
		}
		if placedSeeds == 0 {
			return nil, fmt.Errorf("diurnal ratio=%g: all seeds infeasible", ratio)
		}
		t.Rows = append(t.Rows, []string{
			num(ratio),
			pct(1 - oursSum/ffpsSum),
			kwm(oursSum / float64(placedSeeds)),
			kwm(ffpsSum / float64(placedSeeds)),
			itoa(peak),
		})
	}
	t.Notes = append(t.Notes,
		"peakier arrivals concentrate VMs in time: consolidation gets easier at the peak while the trough behaves like a sparse workload",
		"ratio 1 is the paper's flat Poisson process")

	chart, err := activityChart(ctx)
	if err != nil {
		return nil, err
	}
	return &Result{Tables: []Table{t}, Charts: []report.Chart{*chart}}, nil
}

// activityChart plots the fleet's active-server count over time for one
// strongly diurnal instance under both allocators — the picture dynamic
// right-sizing papers draw, derived here from a single offline placement.
func activityChart(ctx context.Context) (*report.Chart, error) {
	inst, err := diurnalInstance(6, 1)
	if err != nil {
		return nil, err
	}
	chart := &report.Chart{
		Title:  "Active servers over time (peak/trough 6, one seed)",
		XLabel: "time (min)",
		YLabel: "active servers",
	}
	for _, a := range []core.Allocator{core.NewMinCost(), baseline.NewFFPS(core.WithSeed(1))} {
		res, err := a.Allocate(ctx, inst)
		if err != nil {
			return nil, fmt.Errorf("diurnal activity chart: %w", err)
		}
		series, err := metrics.ActiveServersSeries(inst, res.Placement)
		if err != nil {
			return nil, err
		}
		// Downsample to ~80 points for the chart.
		step := len(series)/80 + 1
		var xs, ys []float64
		for i := 0; i < len(series); i += step {
			xs = append(xs, float64(i+1))
			ys = append(ys, float64(series[i]))
		}
		chart.Series = append(chart.Series, report.Series{Name: res.Allocator, X: xs, Y: ys})
	}
	return chart, nil
}
