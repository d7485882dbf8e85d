// Benchmarks that regenerate the paper's evaluation: one benchmark per
// table and figure (running the corresponding experiment in quick mode),
// plus allocator micro-benchmarks.
//
// The full-fidelity numbers are produced by `go run ./cmd/vmsim -exp all`;
// these benches exercise exactly the same code paths with scaled-down
// sweeps so `go test -bench=.` stays fast.
package vmalloc_test

import (
	"context"
	"strconv"
	"testing"

	"vmalloc"
	"vmalloc/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opts := experiments.Options{Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(ctx, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 || len(res.Tables[0].Rows) == 0 {
			b.Fatal("experiment produced no data")
		}
	}
}

func BenchmarkTable1Catalog(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkTable2Catalog(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkFig2Reduction(b *testing.B)      { benchExperiment(b, "fig2") }
func BenchmarkFig3Utilization(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFig4LoadCurve(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFig5Transition(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6Length(b *testing.B)         { benchExperiment(b, "fig6") }
func BenchmarkFig7Standard(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8StdUtilization(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9LoadLinear(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkOptimalityGap(b *testing.B)      { benchExperiment(b, "optgap") }
func BenchmarkAblation(b *testing.B)           { benchExperiment(b, "ablation") }
func BenchmarkOnlineExtension(b *testing.B)    { benchExperiment(b, "online") }
func BenchmarkConsolidation(b *testing.B)      { benchExperiment(b, "consolidation") }
func BenchmarkSensitivity(b *testing.B)        { benchExperiment(b, "sensitivity") }
func BenchmarkScaling(b *testing.B)            { benchExperiment(b, "scaling") }
func BenchmarkProportionality(b *testing.B)    { benchExperiment(b, "proportionality") }
func BenchmarkDiurnal(b *testing.B)            { benchExperiment(b, "diurnal") }
func BenchmarkLocalSearch(b *testing.B)        { benchExperiment(b, "localsearch") }

// BenchmarkMinCostAllocate measures raw allocator throughput at paper
// scales (servers = VMs/2).
func BenchmarkMinCostAllocate(b *testing.B) {
	for _, m := range []int{100, 250, 500} {
		b.Run(strconv.Itoa(m)+"vms", func(b *testing.B) {
			inst := benchInstance(b, m)
			alloc := vmalloc.NewMinCost()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alloc.Allocate(context.Background(), inst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "vms/s")
		})
	}
}

// BenchmarkOfflineMinCost is the `offline-mincost` workload of bench/ in
// process: one MinCost Allocate through the facade on the benchmark's own
// shape (5,000 VMs, 500 servers, inter-arrival 0.1, mean length 60).
// ns/candidate is the whole call over the (VM, server) pairs considered,
// 500 per VM, though the pass reads only the rows that can host the VM.
func BenchmarkOfflineMinCost(b *testing.B) {
	inst, err := vmalloc.Generate(
		vmalloc.WorkloadSpec{NumVMs: 5000, MeanInterArrival: 0.1, MeanLength: 60},
		vmalloc.FleetSpec{NumServers: 500, TransitionTime: 1}, 1)
	if err != nil {
		b.Fatal(err)
	}
	alloc := vmalloc.NewMinCost()
	var candidates int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := alloc.Allocate(context.Background(), inst)
		if err != nil {
			b.Fatal(err)
		}
		candidates += res.Stats.CandidatesEvaluated
	}
	b.ReportMetric(float64(len(inst.VMs))*float64(b.N)/b.Elapsed().Seconds(), "vms/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(candidates), "ns/candidate")
}

// BenchmarkLookahead is one Lookahead Allocate of 1000 VMs on 500 servers:
// the rule prices the next VM on every server once per VM, so the time per
// candidate must not grow with the fleet.
func BenchmarkLookahead(b *testing.B) {
	inst := largeBenchInstance(b, 1000, 500)
	alloc := vmalloc.NewLookahead()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alloc.Allocate(context.Background(), inst); err != nil {
			b.Fatal(err)
		}
	}
}

// largeBenchInstance builds a dense instance (inter-arrival 0.5, mean
// length 120).
func largeBenchInstance(b *testing.B, vms, servers int) vmalloc.Instance {
	b.Helper()
	inst, err := vmalloc.Generate(
		vmalloc.WorkloadSpec{NumVMs: vms, MeanInterArrival: 0.5, MeanLength: 120},
		vmalloc.FleetSpec{NumServers: servers, TransitionTime: 1},
		1,
	)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkFFPSAllocate measures the baseline's throughput.
func BenchmarkFFPSAllocate(b *testing.B) {
	inst := benchInstance(b, 250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vmalloc.NewFFPS(vmalloc.WithSeed(int64(i))).Allocate(context.Background(), inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateObjective measures the exact Eq. 7 evaluator.
func BenchmarkEvaluateObjective(b *testing.B) {
	inst := benchInstance(b, 250)
	res, err := vmalloc.NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vmalloc.EvaluateObjective(inst, res.Placement); err != nil {
			b.Fatal(err)
		}
	}
}

func benchInstance(b *testing.B, m int) vmalloc.Instance {
	b.Helper()
	inst, err := vmalloc.Generate(
		vmalloc.WorkloadSpec{NumVMs: m, MeanInterArrival: 2, MeanLength: 50},
		vmalloc.FleetSpec{NumServers: m / 2, TransitionTime: 1},
		1,
	)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}
