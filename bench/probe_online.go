package main

import (
	"math/rand"
	"time"

	"vmalloc"
	"vmalloc/internal/online"
)

// probeOnline times the fleet state machine on a 512-server Table II fleet
// loaded to about half its CPU: one MinCostPolicy.Place, one Commit, one
// Release, and the clock's cost per departure.
func probeOnline(scale int, out map[string]float64) {
	inst, err := vmalloc.Generate(vmalloc.WorkloadSpec{NumVMs: 4000, MeanInterArrival: 0.01, MeanLength: 400},
		vmalloc.FleetSpec{NumServers: 512, TransitionTime: 2}, 1)
	if err != nil {
		return // the specs are constants; Generate cannot refuse them
	}
	pol := &online.MinCostPolicy{}
	fl := online.NewFleet(inst.Servers, 2)
	var capCPU, used float64
	for _, s := range inst.Servers {
		capCPU += s.Capacity.CPU
	}
	fl.AdvanceTo(1)
	next := 0
	for ; used < capCPU/2 && next < len(inst.VMs); next++ {
		v := inst.VMs[next]
		v.Start, v.End = 1, 1+v.End-v.Start
		if i, err := pol.Place(fl.View(), v); err == nil {
			if _, err := fl.Commit(i, v); err == nil {
				used += v.Demand.CPU
			}
		}
	}
	fl.AdvanceTo(5) // every wake-up is done: servers are active, not waking

	rng := rand.New(rand.NewSource(1))
	rest := inst.VMs[next:]
	pick := func() vmalloc.VM {
		v := rest[rng.Intn(len(rest))]
		v.ID = 1_000_000
		v.Start, v.End = fl.Now(), fl.Now()+30
		return v
	}
	out["online.place_ns_per_vm"] = timeOp(200/scale, func() { pol.Place(fl.View(), pick()) }) //nolint:errcheck // timing only

	// Commit then Release of the same VM leaves the fleet as it was.
	v := pick()
	target, err := pol.Place(fl.View(), v)
	if err != nil {
		return
	}
	out["online.commit_ns_per_vm"], out["online.release_ns_per_vm"] = timePair(200/scale,
		func() { fl.Commit(target, v) }, //nolint:errcheck // feasible: Place just chose it
		func() { fl.Release(v.ID) })     //nolint:errcheck // resident: Commit just put it there

	// One AdvanceTo past every end processes each departure and the idle
	// checks that follow.
	if residents := len(fl.Residents()); residents > 0 {
		t0 := time.Now()
		fl.AdvanceTo(fl.Now() + 100_000)
		out["online.advance_ns_per_event"] = float64(time.Since(t0).Nanoseconds()) / float64(residents)
	}
}
