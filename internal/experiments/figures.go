package experiments

import (
	"context"
	"fmt"

	"vmalloc/internal/report"
	"vmalloc/internal/sim"
	"vmalloc/internal/stats"
)

// column extracts one value per sweep point.
func column(sums []*sim.Summary, pick func(*sim.Summary) float64) []float64 {
	out := make([]float64, len(sums))
	for i, s := range sums {
		out[i] = pick(s)
	}
	return out
}

func reduction(s *sim.Summary) float64 { return s.MeanReductionRatio }

// §IV-C quantifies the load of the system by the FFPS utilisations.
func cpuLoad(s *sim.Summary) float64 { return s.Allocators[1].Utilization.CPU }
func memLoad(s *sim.Summary) float64 { return s.Allocators[1].Utilization.Mem }

// noteSkipped records dropped seeds, if any, under the table.
func (t *Table) noteSkipped(sums []*sim.Summary) {
	skipped := 0
	for _, s := range sums {
		skipped += s.Skipped
	}
	if skipped > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("%d infeasible seed(s) skipped", skipped))
	}
}

// fitFunc is stats.LinearFit or stats.LogFit.
type fitFunc func(xs, ys []float64) (stats.Fit, error)

// fitNote formats a per-series fit annotation like the paper's legends.
func fitNote(series string, xs, ys []float64, fit fitFunc) string {
	f, err := fit(xs, ys)
	if err != nil {
		return fmt.Sprintf("%s: fit unavailable (%v)", series, err)
	}
	return fmt.Sprintf("%s fit of %s: %s", f.Kind, series, f)
}

func pctChart(title, xLabel, yLabel string) report.Chart {
	return report.Chart{Title: title, XLabel: xLabel, YLabel: yLabel, YPercent: true}
}

const interArrivalAxis = "mean inter-arrival time (min)"

// curve is one line of a reduction-vs-inter-arrival figure: a campaign and
// what it is called in the table header, the fit note and the chart legend.
type curve struct {
	column, note, series string
	c                    campaign
}

// byCount draws one curve per VM count of the §IV-C sweep, overwriting
// base.vms.
func byCount(base campaign) func(Options) []curve {
	return func(opts Options) []curve {
		var cs []curve
		for _, base.vms = range opts.vmCounts() {
			label := fmt.Sprintf("%d VMs", base.vms)
			cs = append(cs, curve{label, label, label, base})
		}
		return cs
	}
}

// byParam draws one curve per value of a parameter of the 100-VM campaign;
// the three formats take the value.
func byParam(column, note, series string, set func(*campaign, float64), values ...float64) func(Options) []curve {
	return func(Options) []curve {
		var cs []curve
		for _, v := range values {
			c := paperCampaign(100)
			set(&c, v)
			cs = append(cs, curve{fmt.Sprintf(column, v), fmt.Sprintf(note, v), fmt.Sprintf(series, v), c})
		}
		return cs
	}
}

// reductionFigure is the shape of Fig. 2, 5, 6 and 7: energy reduction
// ratio against mean inter-arrival time, one fitted curve per campaign.
type reductionFigure struct {
	name, caption, chartTitle string
	fit                       fitFunc
	curves                    func(Options) []curve
}

func (f reductionFigure) run(ctx context.Context, opts Options) (*Result, error) {
	ias := opts.interArrivals()
	t := Table{Name: f.name, Caption: f.caption, Header: []string{"inter-arrival (min)"}}
	for _, ia := range ias {
		t.Rows = append(t.Rows, []string{num(ia)})
	}
	chart := pctChart(f.chartTitle, interArrivalAxis, "energy reduction ratio")
	var all []*sim.Summary
	for _, cv := range f.curves(opts) {
		sums, err := cv.c.sweep(ctx, opts)
		if err != nil {
			return nil, err
		}
		ys := column(sums, reduction)
		t.Header = append(t.Header, cv.column)
		for i, y := range ys {
			t.Rows[i] = append(t.Rows[i], pct(y))
		}
		t.Notes = append(t.Notes, fitNote(cv.note, ias, ys, f.fit))
		chart.Series = append(chart.Series, report.Series{Name: cv.series, X: ias, Y: ys})
		all = append(all, sums...)
	}
	t.noteSkipped(all)
	return &Result{Tables: []Table{t}, Charts: []report.Chart{chart}}, nil
}

// utilPanel is one table-and-chart of a utilisation figure.
type utilPanel struct {
	name, caption, chartTitle string
	c                         campaign
}

// utilisationFigure is the shape of Fig. 3 and Fig. 8: average CPU and
// memory utilisation of busy servers against mean inter-arrival time,
// ours vs FFPS, one panel per fleet.
type utilisationFigure []utilPanel

var utilColumns = []struct {
	name string
	pick func(*sim.Summary) float64
}{
	{"ours CPU", func(s *sim.Summary) float64 { return s.Allocators[0].Utilization.CPU }},
	{"ours mem", func(s *sim.Summary) float64 { return s.Allocators[0].Utilization.Mem }},
	{"FFPS CPU", cpuLoad},
	{"FFPS mem", memLoad},
}

func (f utilisationFigure) run(ctx context.Context, opts Options) (*Result, error) {
	ias := opts.interArrivals()
	res := &Result{}
	for _, p := range f {
		sums, err := p.c.sweep(ctx, opts)
		if err != nil {
			return nil, err
		}
		t := Table{Name: p.name, Caption: p.caption, Header: []string{"inter-arrival (min)"}}
		for _, ia := range ias {
			t.Rows = append(t.Rows, []string{num(ia)})
		}
		chart := pctChart(p.chartTitle, interArrivalAxis, "resource utilisation")
		for _, col := range utilColumns {
			ys := column(sums, col.pick)
			t.Header = append(t.Header, col.name)
			for i, y := range ys {
				t.Rows[i] = append(t.Rows[i], pct(y))
			}
			chart.Series = append(chart.Series, report.Series{Name: col.name, X: ias, Y: ys})
		}
		res.Tables = append(res.Tables, t)
		res.Charts = append(res.Charts, chart)
	}
	return res, nil
}

// Fig. 2–9 as parameter rows. Fig. 4 and Fig. 9 (reduction against load
// rather than against inter-arrival time) follow below.
var (
	fig2 = reductionFigure{
		name:       "Fig. 2",
		caption:    "energy reduction ratio vs mean inter-arrival time (minutes)",
		chartTitle: "Fig. 2 — energy reduction ratio vs mean inter-arrival time",
		fit:        stats.LinearFit,
		curves:     byCount(paperCampaign(0)),
	}
	fig3 = utilisationFigure{{
		name:       "Fig. 3",
		caption:    "average utilisation of busy servers, MinCost vs FFPS (100 VMs, 50 servers)",
		chartTitle: "Fig. 3 — average utilisation vs mean inter-arrival time (100 VMs)",
		c:          paperCampaign(100),
	}}
	fig5 = reductionFigure{
		name:       "Fig. 5",
		caption:    "energy reduction ratio for transition times of 0.5, 1 and 3 minutes",
		chartTitle: "Fig. 5 — impact of transition time",
		fit:        stats.LinearFit,
		curves: byParam("%g min", "transition time = %g min", "transition %g min",
			func(c *campaign, v float64) { c.transition = v }, 0.5, 1, 3),
	}
	fig6 = reductionFigure{
		name:       "Fig. 6",
		caption:    "energy reduction ratio for mean VM lengths of 20, 50 and 100 minutes",
		chartTitle: "Fig. 6 — impact of mean VM length",
		fit:        stats.LinearFit,
		curves: byParam("%g min", "mean length = %g min", "mean length %g min",
			func(c *campaign, v float64) { c.meanLength = v }, 20, 50, 100),
	}
	fig7 = reductionFigure{
		name:       "Fig. 7",
		caption:    "reduction ratio vs mean inter-arrival time (standard VMs, server types 1-3)",
		chartTitle: "Fig. 7 — reduction ratio, standard VMs on server types 1-3",
		fit:        stats.LogFit,
		curves:     byCount(standardCampaign(smallServerTypes)),
	}
	fig8 = utilisationFigure{
		{
			name:       "Fig. 8(a) all types of servers",
			caption:    "average utilisation of busy servers (100 standard VMs, 50 servers)",
			chartTitle: "Fig. 8(a) all types of servers",
			c:          standardCampaign(nil),
		},
		{
			name:       "Fig. 8(b) types 1-3 of servers",
			caption:    "average utilisation of busy servers (100 standard VMs, 50 servers)",
			chartTitle: "Fig. 8(b) types 1-3 of servers",
			c:          standardCampaign(smallServerTypes),
		},
	}
)

// fig4 reproduces paper Fig. 4: energy reduction ratio vs the memory load
// of the system, with logarithmic fits per VM count.
func fig4(ctx context.Context, opts Options) (*Result, error) {
	t := Table{
		Name:    "Fig. 4",
		Caption: "reduction ratio keyed by memory load (load = FFPS memory utilisation)",
		Header:  []string{"VMs", "inter-arrival (min)", "memory load", "reduction ratio"},
	}
	chart := pctChart("Fig. 4 — energy reduction ratio vs memory load",
		"memory load of the system", "energy reduction ratio")
	for _, m := range opts.vmCounts() {
		sums, err := paperCampaign(m).sweep(ctx, opts)
		if err != nil {
			return nil, err
		}
		loads, reds := column(sums, memLoad), column(sums, reduction)
		for i, ia := range opts.interArrivals() {
			t.Rows = append(t.Rows, []string{itoa(m), num(ia), pct(loads[i]), pct(reds[i])})
		}
		t.Notes = append(t.Notes,
			fitNote(fmt.Sprintf("%d VMs (reduction vs load)", m), loads, reds, stats.LogFit))
		chart.Series = append(chart.Series, report.Series{Name: fmt.Sprintf("%d VMs", m), X: loads, Y: reds})
	}
	return &Result{Tables: []Table{t}, Charts: []report.Chart{chart}}, nil
}

// fig9 reproduces paper Fig. 9: reduction ratio vs the CPU and memory load
// of the system for standard VMs on both fleets, with linear fits.
func fig9(ctx context.Context, opts Options) (*Result, error) {
	t := Table{
		Name:    "Fig. 9",
		Caption: "reduction ratio vs system load (load = FFPS utilisation; 100 standard VMs)",
		Header:  []string{"fleet", "inter-arrival (min)", "CPU load", "memory load", "reduction ratio"},
	}
	chart := pctChart("Fig. 9 — energy reduction ratio vs system load (standard VMs)",
		"load of the system", "energy reduction ratio")
	for _, fleet := range []struct {
		name  string
		types []string
	}{
		{"all types of servers used", nil},
		{"types 1-3 of servers used", smallServerTypes},
	} {
		sums, err := standardCampaign(fleet.types).sweep(ctx, opts)
		if err != nil {
			return nil, err
		}
		cpu, mem, reds := column(sums, cpuLoad), column(sums, memLoad), column(sums, reduction)
		for i, ia := range opts.interArrivals() {
			t.Rows = append(t.Rows, []string{fleet.name, num(ia), pct(cpu[i]), pct(mem[i]), pct(reds[i])})
		}
		for _, load := range []struct {
			name string
			xs   []float64
		}{
			{"vs CPU load (" + fleet.name + ")", cpu},
			{"vs memory load (" + fleet.name + ")", mem},
		} {
			t.Notes = append(t.Notes, fitNote(load.name, load.xs, reds, stats.LinearFit))
			chart.Series = append(chart.Series, report.Series{Name: load.name, X: load.xs, Y: reds})
		}
	}
	return &Result{Tables: []Table{t}, Charts: []report.Chart{chart}}, nil
}
