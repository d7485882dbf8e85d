package experiments

import (
	"context"
	"fmt"

	"vmalloc/internal/core"
	"vmalloc/internal/model"
	"vmalloc/internal/online"
	"vmalloc/internal/report"
)

// onlineStudy is an extension experiment (not in the paper): it re-runs
// the paper's workload through the event-driven simulator, where wake-ups
// take real time and sleep decisions use an idle timeout instead of the
// offline model's clairvoyant gap rule. It sweeps the idle timeout and
// reports the energy/start-delay trade-off, plus how the online policies
// compare with the offline bound.
func onlineStudy(ctx context.Context, opts Options) (*Result, error) {
	timeouts := []int{0, 1, 2, 5, 10, 30}
	if opts.Quick {
		timeouts = []int{0, 2, 10}
	}
	t := Table{
		Name: "Online idle-timeout sweep",
		Caption: "event-driven online/mincost, 100 VMs / 50 servers, inter-arrival 2 min " +
			"(offline MinCost on the same instances shown as the clairvoyant bound)",
		Header: []string{
			"idle timeout (min)", "energy (kWmin)", "vs offline MinCost",
			"transitions", "mean start delay (min)",
		},
	}
	chart := report.Chart{
		Title:  "Online energy and start delay vs idle timeout",
		XLabel: "idle timeout (min)",
		YLabel: "energy overhead vs offline",
	}
	seeds := opts.seeds()
	var xs, overhead, delays []float64
	for _, timeout := range timeouts {
		var (
			onlineSum, offlineSum, delaySum float64
			transitions                     int
		)
		err := paperInstances(ctx, opts, func(_ int64, inst model.Instance) error {
			rep, err := (&online.Engine{Policy: &online.MinCostPolicy{}, IdleTimeout: timeout}).Run(inst)
			if err != nil {
				return err
			}
			off, err := core.NewMinCost().Allocate(ctx, inst)
			if err != nil {
				return err
			}
			onlineSum += rep.Energy.Total()
			offlineSum += off.Energy.Total()
			delaySum += rep.MeanStartDelay
			transitions += rep.Transitions
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("online timeout=%d: %w", timeout, err)
		}
		ratio := onlineSum/offlineSum - 1
		t.Rows = append(t.Rows, []string{
			itoa(timeout),
			kwm(onlineSum / float64(seeds)),
			fmt.Sprintf("+%s", pct(ratio)),
			itoa(transitions / seeds),
			f2(delaySum / float64(seeds)),
		})
		xs = append(xs, float64(timeout))
		overhead = append(overhead, ratio)
		delays = append(delays, delaySum/float64(seeds))
	}
	chart.Series = append(chart.Series,
		report.Series{Name: "energy overhead", X: xs, Y: overhead},
		report.Series{Name: "mean start delay (min)", X: xs, Y: delays},
	)
	t.Notes = append(t.Notes,
		"short timeouts save idle power but wake servers more often and delay more VM starts;",
		"long timeouts converge on never-sleeping: the offline clairvoyant rule needs neither extreme")

	// Second table: online policies against each other at one timeout.
	t2 := Table{
		Name:    "Online policies",
		Caption: "energy (kWmin) at idle timeout 2 min, averaged over seeds",
		Header:  []string{"policy", "energy (kWmin)", "mean start delay (min)"},
	}
	for _, mk := range []func(seed int64) online.Policy{
		func(int64) online.Policy { return &online.MinCostPolicy{} },
		func(int64) online.Policy { return &online.DelayAwareMinCostPolicy{PenaltyPerMinute: 300} },
		func(seed int64) online.Policy { return online.NewFirstFitPolicy(seed) },
		func(int64) online.Policy { return &online.PreferActivePolicy{} },
	} {
		var eSum, dSum float64
		name := mk(1).Name()
		err := paperInstances(ctx, opts, func(seed int64, inst model.Instance) error {
			rep, err := (&online.Engine{Policy: mk(seed), IdleTimeout: 2}).Run(inst)
			if err != nil {
				return err
			}
			eSum += rep.Energy.Total()
			dSum += rep.MeanStartDelay
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("online policy %s: %w", name, err)
		}
		t2.Rows = append(t2.Rows, []string{
			name, kwm(eSum / float64(seeds)), f2(dSum / float64(seeds)),
		})
	}
	return &Result{Tables: []Table{t, t2}, Charts: []report.Chart{chart}}, nil
}
