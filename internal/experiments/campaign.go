package experiments

import (
	"context"
	"fmt"

	"vmalloc/internal/baseline"
	"vmalloc/internal/core"
	"vmalloc/internal/model"
	"vmalloc/internal/sim"
	"vmalloc/internal/workload"
)

// campaign is one point of the paper's evaluation (§IV-C): vms VMs on
// vms/2 servers, run over the seeds by a lineup of allocators.
type campaign struct {
	vms         int
	interArr    float64
	meanLength  float64
	transition  float64
	classes     []model.VMClass // nil = every class
	serverTypes []string        // nil = all five types
}

// paperCampaign returns the §IV-C defaults at the given size; inter-arrival
// 2 min is where the extension studies sit, the figures sweep it.
func paperCampaign(vms int) campaign {
	return campaign{vms: vms, interArr: 2, meanLength: DefaultMeanLength, transition: DefaultTransition}
}

// The paper's second setting (Fig. 7–9): standard VM types only, on all
// servers or on "types 1-3 of servers".
var (
	standardClasses  = []model.VMClass{model.ClassStandard}
	smallServerTypes = []string{"type-1", "type-2", "type-3"}
)

func standardCampaign(serverTypes []string) campaign {
	c := paperCampaign(100)
	c.classes, c.serverTypes = standardClasses, serverTypes
	return c
}

func (c campaign) specs() (workload.Spec, workload.FleetSpec) {
	return workload.Spec{
			NumVMs: c.vms, MeanInterArrival: c.interArr, MeanLength: c.meanLength, Classes: c.classes,
		}, workload.FleetSpec{
			NumServers: c.vms / 2, TransitionTime: c.transition, Types: c.serverTypes,
		}
}

// instance generates the campaign's workload for one seed.
func (c campaign) instance(seed int64) (model.Instance, error) {
	w, f := c.specs()
	return workload.Generate(w, f, seed)
}

// run averages the campaign over opts.seeds() seeds, dropping seeds some
// allocator cannot place; an empty lineup is MinCost against FFPS.
func (c campaign) run(ctx context.Context, opts Options, lineup ...string) (*sim.Summary, error) {
	w, f := c.specs()
	sum, err := sim.Run(ctx, sim.Config{
		Workload: w, Fleet: f, Seeds: opts.seeds(),
		Allocators: lineup, SkipInfeasible: true,
	})
	if err != nil {
		return nil, fmt.Errorf("%d VMs, inter-arrival %g: %w", c.vms, c.interArr, err)
	}
	return sum, nil
}

// sweep runs the campaign at every mean inter-arrival time of the sweep.
func (c campaign) sweep(ctx context.Context, opts Options) ([]*sim.Summary, error) {
	var sums []*sim.Summary
	for _, c.interArr = range opts.interArrivals() {
		sum, err := c.run(ctx, opts)
		if err != nil {
			return nil, err
		}
		sums = append(sums, sum)
	}
	return sums, nil
}

// paperInstances calls fn with the 100-VM paper campaign's instance for
// every seed 1..opts.seeds(): the loop under the studies that do more with
// an instance than run a lineup on it.
func paperInstances(ctx context.Context, opts Options, fn func(seed int64, inst model.Instance) error) error {
	for seed := int64(1); seed <= int64(opts.seeds()); seed++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		inst, err := paperCampaign(100).instance(seed)
		if err != nil {
			return err
		}
		if err := fn(seed, inst); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	return nil
}

// basePlacements runs the named registry allocator on every paper instance
// and hands fn each placement to post-process; it returns the name the
// allocator reports.
func basePlacements(ctx context.Context, opts Options, name string, fn func(seed int64, inst model.Instance, placed *core.Result) error) (string, error) {
	mk, err := baseline.Lookup(name)
	if err != nil {
		return "", err
	}
	err = paperInstances(ctx, opts, func(seed int64, inst model.Instance) error {
		placed, err := mk(core.WithSeed(seed)).Allocate(ctx, inst)
		if err != nil {
			return err
		}
		return fn(seed, inst, placed)
	})
	return mk().Name(), err
}
