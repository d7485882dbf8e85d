package vmalloc_test

import (
	"context"
	"math"
	"testing"

	"vmalloc"
)

// TestExtensionsFacade drives every extension entry point exposed by the
// facade: diurnal generation, power curves, the improver, and the online
// first-fit constructor.
func TestExtensionsFacade(t *testing.T) {
	inst, err := vmalloc.GenerateDiurnal(
		vmalloc.DiurnalSpec{
			NumVMs: 60, MeanInterArrival: 2, MeanLength: 40,
			PeakToTrough: 3, Period: 300,
		},
		vmalloc.FleetSpec{NumServers: 30, TransitionTime: 1},
		13,
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.VMs) != 60 {
		t.Fatalf("diurnal generated %d VMs", len(inst.VMs))
	}

	res, err := vmalloc.NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}

	// The affine curve must agree with the standard evaluator.
	affine, err := vmalloc.EvaluateUnderCurve(inst, res.Placement, vmalloc.AffinePowerCurve())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(affine.Total()-res.Energy.Total()) > 1e-6*(1+res.Energy.Total()) {
		t.Errorf("affine curve %g != evaluator %g", affine.Total(), res.Energy.Total())
	}
	// A fully proportional fleet must bill strictly less.
	prop, err := vmalloc.EvaluateUnderCurve(inst, res.Placement, vmalloc.ProportionalPowerCurve(1))
	if err != nil {
		t.Fatal(err)
	}
	if prop.Total() >= affine.Total() {
		t.Errorf("proportional bill %g not below affine %g", prop.Total(), affine.Total())
	}

	// The improver starts from FFPS and must not worsen it.
	ffps, err := vmalloc.NewFFPS(vmalloc.WithSeed(13)).Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	place, final, stats, err := (&vmalloc.Improver{Seed: 13}).Improve(inst, ffps.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if final > ffps.Energy.Total()+1e-6 {
		t.Errorf("improver worsened FFPS: %g -> %g", ffps.Energy.Total(), final)
	}
	if err := vmalloc.CheckPlacement(inst, place); err != nil {
		t.Fatalf("improved placement infeasible: %v", err)
	}
	if stats.Final > stats.Start {
		t.Errorf("improver stats: final %g above start %g", stats.Final, stats.Start)
	}

	// Lookahead allocates validly and is named distinctly.
	look, err := vmalloc.NewLookahead().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if look.Allocator != "MinCost/lookahead" {
		t.Errorf("lookahead name %q", look.Allocator)
	}

	// Online first-fit runs end to end.
	rep, err := (&vmalloc.OnlineEngine{Policy: vmalloc.NewOnlineFirstFit(vmalloc.WithSeed(13)), IdleTimeout: 2}).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Policy != "online/ffps" || len(rep.Placement) != len(inst.VMs) {
		t.Errorf("online report %+v", rep.Policy)
	}
}
