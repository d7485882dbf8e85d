package online

import (
	"math"
	"testing"

	"vmalloc/internal/model"
	"vmalloc/internal/workload"
)

// BenchmarkEngineRun measures end-to-end event-driven simulation
// throughput at paper scale.
func BenchmarkEngineRun(b *testing.B) {
	inst, err := workload.Generate(
		workload.Spec{NumVMs: 100, MeanInterArrival: 2, MeanLength: 50},
		workload.FleetSpec{NumServers: 50, TransitionTime: 1},
		1,
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&Engine{Policy: &MinCostPolicy{}, IdleTimeout: 2}).Run(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// probeFleet builds the fleet bench/probe_online.go times Place on: 512
// Table II servers loaded to about half their CPU, every wake-up done.
// With distinctP1, server i's PPeak is first raised by i ulps, so every
// server is a price class of its own. It also returns the VMs left over,
// to place against it.
func probeFleet(tb testing.TB, distinctP1 bool) (*Fleet, []model.VM) {
	tb.Helper()
	inst, err := workload.Generate(
		workload.Spec{NumVMs: 4000, MeanInterArrival: 0.01, MeanLength: 400},
		workload.FleetSpec{NumServers: 512, TransitionTime: 2},
		1,
	)
	if err != nil {
		tb.Fatal(err)
	}
	if distinctP1 {
		for i := range inst.Servers {
			s := &inst.Servers[i]
			s.PPeak = math.Float64frombits(math.Float64bits(s.PPeak) + uint64(i))
		}
	}
	pol := &MinCostPolicy{}
	fl := NewFleet(inst.Servers, 2)
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
	fl.AdvanceTo(5)
	if distinctP1 && len(fl.view.classes) != len(inst.Servers) {
		tb.Fatalf("%d price classes over %d servers, want one each", len(fl.view.classes), len(inst.Servers))
	}
	return fl, inst.VMs[next:]
}

var placeSink int

// BenchmarkPlace is one admission scan over the probe fleet's 512 rows,
// by each policy minCostPass serves, and by MinCost on the distinct-P¹
// fleet, where the class walk is a walk in P¹ order. probed/op counts the
// rows the pass probed rather than skipped by its run-cost bound.
func BenchmarkPlace(b *testing.B) {
	for _, bc := range []struct {
		name       string
		pol        Policy
		distinctP1 bool
	}{
		{"mincost", &MinCostPolicy{}, false},
		{"delay-aware", &DelayAwareMinCostPolicy{PenaltyPerMinute: DefaultDelayPenalty}, false},
		{"distinct-p1", &MinCostPolicy{}, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			fl, rest := probeFleet(b, bc.distinctP1)
			fv := fl.View()
			before := fv.ScanCounts()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				v := rest[n%len(rest)]
				v.ID = 1_000_000
				v.Start, v.End = fl.Now(), fl.Now()+30
				i, err := bc.pol.Place(fv, v)
				if err != nil {
					b.Fatal(err)
				}
				placeSink = i
			}
			after := fv.ScanCounts()
			probed := (after.Evaluated - before.Evaluated) - (after.Bounded - before.Bounded)
			b.ReportMetric(float64(probed)/float64(b.N), "probed/op")
		})
	}
}
