// Package sim runs a simulation campaign: it generates seeded workloads,
// runs an ordered lineup of allocators from the baseline registry on each
// (the paper's heuristic against FFPS unless told otherwise), computes the
// paper's metrics, and averages across seeds. Seeds run concurrently on a
// bounded worker pool.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"vmalloc/internal/baseline"
	"vmalloc/internal/core"
	"vmalloc/internal/metrics"
	"vmalloc/internal/model"
	"vmalloc/internal/workload"
)

// DefaultLineup is the paper's comparison: MinCost against FFPS.
var DefaultLineup = []string{"mincost", "ffps"}

// Config describes one simulation campaign: a workload/fleet pair run over
// several seeds by a lineup of allocators.
type Config struct {
	Workload workload.Spec      `json:"workload"`
	Fleet    workload.FleetSpec `json:"fleet"`
	// Seeds is the number of random runs, on workload seeds 1..Seeds; the
	// paper averages 5 per data point.
	Seeds int `json:"seeds"`
	// Allocators is the lineup: the allocators to run, by registry name
	// (baseline.Names), in the order Summary.Allocators reports them; empty
	// means DefaultLineup. Each is built with the workload seed. The
	// reduction ratio compares the first entry against the second.
	Allocators []string `json:"allocators,omitempty"`
	// SkipInfeasible drops seeds on which any allocator cannot place every
	// VM (possible at the densest settings) instead of failing the whole
	// campaign. Skipped seeds are counted in Summary.Skipped.
	SkipInfeasible bool `json:"skipInfeasible,omitempty"`
}

// RunResult is one allocator's outcome on one seeded instance.
type RunResult struct {
	Allocator   string              `json:"allocator"`
	Energy      float64             `json:"energyWattMinutes"`
	Utilization metrics.Utilization `json:"utilization"`
	ServersUsed int                 `json:"serversUsed"`
	// Stats are the allocator's scan counters, nil when it reports none.
	Stats *core.AllocStats `json:"stats,omitempty"`
}

// SeedOutcome collects every allocator's result on one seeded instance.
type SeedOutcome struct {
	Seed int64 `json:"seed"`
	// Results are in lineup order.
	Results []RunResult `json:"results"`
	// ReductionRatio is (E₁ − E₀)/E₁ for lineup entries 0 and 1 on this
	// seed: with the default lineup, (E_FFPS − E_ours)/E_FFPS.
	ReductionRatio float64 `json:"reductionRatio"`
}

// AllocatorSummary is one lineup entry averaged over the kept seeds.
type AllocatorSummary struct {
	// Name is the lineup name, Allocator the name the allocator reports.
	Name        string              `json:"name"`
	Allocator   string              `json:"allocator"`
	Energy      float64             `json:"energyWattMinutes"`
	ServersUsed float64             `json:"serversUsed"`
	Utilization metrics.Utilization `json:"utilization"`
	// Stats sums the allocator's AllocStats over the seeds; zero when the
	// allocator reports none.
	Stats core.AllocStats `json:"stats"`
}

// Summary aggregates a campaign over its seeds.
type Summary struct {
	Runs []SeedOutcome `json:"runs"`
	// Skipped counts seeds dropped because a placement was infeasible
	// (only when Config.SkipInfeasible is set).
	Skipped int `json:"skipped,omitempty"`
	// Allocators holds the per-allocator means, in lineup order. §IV-C
	// quantifies the load of the system by the baseline's utilisation,
	// Allocators[1].Utilization.
	Allocators []AllocatorSummary `json:"allocators"`
	// MeanReductionRatio is the average of the per-seed reduction ratios.
	MeanReductionRatio float64 `json:"meanReductionRatio"`
}

// Run executes the campaign, parallelising across seeds on
// min(GOMAXPROCS, seeds) workers. It fails fast on the first error
// (including infeasible placements, unless cfg.SkipInfeasible) and respects
// ctx cancellation.
func Run(ctx context.Context, cfg Config) (*Summary, error) {
	if cfg.Seeds < 1 {
		return nil, fmt.Errorf("sim: no seeds configured")
	}
	if len(cfg.Allocators) == 0 {
		cfg.Allocators = DefaultLineup
	}
	lineup := make([]baseline.Constructor, len(cfg.Allocators))
	for k, name := range cfg.Allocators {
		mk, err := baseline.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		lineup[k] = mk
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		outcomes = make([]*SeedOutcome, cfg.Seeds)
		wg       sync.WaitGroup
		jobs     = make(chan int)
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	for w := 0; w < min(runtime.GOMAXPROCS(0), cfg.Seeds); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				seed := int64(idx + 1)
				out, err := runSeed(ctx, cfg, lineup, seed)
				var ue *core.UnplaceableError
				if cfg.SkipInfeasible && errors.As(err, &ue) {
					continue // leave outcomes[idx] nil
				}
				if err != nil {
					fail(fmt.Errorf("seed %d: %w", seed, err))
					continue
				}
				outcomes[idx] = out
			}
		}()
	}
feed:
	for idx := range outcomes {
		select {
		case jobs <- idx:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sum := &Summary{}
	for _, o := range outcomes {
		if o == nil {
			sum.Skipped++
			continue
		}
		sum.Runs = append(sum.Runs, *o)
	}
	if len(sum.Runs) == 0 {
		return nil, fmt.Errorf("sim: all %d seeds were infeasible", sum.Skipped)
	}
	sum.summarize(cfg.Allocators)
	return sum, nil
}

// runSeed generates the seeded instance and runs every allocator on it.
func runSeed(ctx context.Context, cfg Config, lineup []baseline.Constructor, seed int64) (*SeedOutcome, error) {
	inst, err := workload.Generate(cfg.Workload, cfg.Fleet, seed)
	if err != nil {
		return nil, err
	}
	out := &SeedOutcome{Seed: seed}
	for _, mk := range lineup {
		res, err := evaluate(ctx, mk(core.WithSeed(seed)), inst)
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, *res)
	}
	if len(out.Results) > 1 && out.Results[1].Energy > 0 {
		out.ReductionRatio = (out.Results[1].Energy - out.Results[0].Energy) / out.Results[1].Energy
	}
	return out, nil
}

func evaluate(ctx context.Context, a core.Allocator, inst model.Instance) (*RunResult, error) {
	res, err := a.Allocate(ctx, inst)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name(), err)
	}
	util, err := metrics.AverageUtilization(inst, res.Placement)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name(), err)
	}
	return &RunResult{
		Allocator:   res.Allocator,
		Energy:      res.Energy.Total(),
		Utilization: util,
		ServersUsed: res.ServersUsed,
		Stats:       res.Stats,
	}, nil
}

// summarize fills the per-allocator means and the mean reduction ratio
// from s.Runs.
func (s *Summary) summarize(lineup []string) {
	n := float64(len(s.Runs))
	s.Allocators = make([]AllocatorSummary, len(lineup))
	for k, name := range lineup {
		a := &s.Allocators[k]
		a.Name, a.Allocator = name, s.Runs[0].Results[k].Allocator
		for _, o := range s.Runs {
			r := o.Results[k]
			a.Energy += r.Energy / n
			a.ServersUsed += float64(r.ServersUsed) / n
			a.Utilization.CPU += r.Utilization.CPU / n
			a.Utilization.Mem += r.Utilization.Mem / n
			if st := r.Stats; st != nil {
				a.Stats.VMsPlaced += st.VMsPlaced
				a.Stats.CandidatesEvaluated += st.CandidatesEvaluated
				a.Stats.FeasibilityRejections += st.FeasibilityRejections
				a.Stats.ScanWall += st.ScanWall
				a.Stats.CommitWall += st.CommitWall
				a.Stats.TotalWall += st.TotalWall
			}
		}
	}
	for _, o := range s.Runs {
		s.MeanReductionRatio += o.ReductionRatio / n
	}
}

// ReductionRatios returns the per-seed reduction ratios (for confidence
// intervals and fits).
func (s *Summary) ReductionRatios() []float64 {
	out := make([]float64, len(s.Runs))
	for i, o := range s.Runs {
		out[i] = o.ReductionRatio
	}
	return out
}
