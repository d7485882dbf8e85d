package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"vmalloc"
)

// runOfflineMinCost is the one workload with no service layer: the paper's
// batch MinCost through the root facade on a §IV-B instance, repeated until
// the measured phase is over. Every placement is re-priced by the exact
// objective evaluator and checked against Eq. 9–12, so the energy ratio it
// reports is exact.
func runOfflineMinCost(env *runEnv) (*result, error) {
	ctx := env.ctx
	res := newResult(wlOfflineMinCost, env)
	t0 := time.Now()
	// 5,000 VMs on 500 servers at the paper's mean length; the arrival rate
	// puts the peak near 40% of the fleet's CPU (and scales with the fleet).
	servers := max(500/env.scale, 50) // fewer leave too few hosts for the 68 GB VM type
	inst, err := vmalloc.Generate(
		vmalloc.WorkloadSpec{NumVMs: 5000 / env.scale, MeanInterArrival: 0.1 * 500 / float64(servers), MeanLength: 60},
		vmalloc.FleetSpec{NumServers: servers, TransitionTime: 1}, env.seed)
	if err != nil {
		return nil, err
	}
	ffpsT0 := time.Now()
	ffps, err := vmalloc.NewFFPS(vmalloc.WithSeed(env.seed)).Allocate(ctx, inst)
	if err != nil {
		return nil, fmt.Errorf("FFPS baseline: %w", err)
	}
	ffpsWall := time.Since(ffpsT0)
	// One unmeasured Allocate is the warm-up: the heap grows to size.
	if _, err := vmalloc.NewMinCost().Allocate(ctx, inst); err != nil {
		return nil, err
	}
	env.setupOnce += time.Since(t0)

	n := len(inst.VMs)
	var alloc, read durations
	var starts []time.Time
	var reductions, candidates, scanShare, utilisation []float64
	var placement0 map[int]int
	var cpu time.Duration
	// cycling is the wall time of the measured cycles: collect, Allocate,
	// collect, read back. vms_per_s is taken over it.
	var cycling time.Duration
	measureT0 := time.Now()
	for time.Since(measureT0).Seconds() < env.seconds || len(alloc) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Each timed call starts from a collected heap, so what it pays for
		// is its own garbage, not whatever the previous call left behind.
		env.cal.sample()
		cycleT0 := time.Now()
		runtime.GC()
		t, cpu0 := time.Now(), selfCPU()
		out, err := vmalloc.NewMinCost().Allocate(ctx, inst)
		alloc = append(alloc, time.Since(t))
		cpu += selfCPU() - cpu0
		starts = append(starts, t)
		res.attempted += n
		if err != nil {
			res.failed += n
			res.problems = append(res.problems, "Allocate: "+err.Error())
			cycling += time.Since(cycleT0)
			continue
		}
		// Reading a placement back: its exact energy (Eq. 7/8) and its
		// validity (Eq. 9–12) — what GET /v1/state is to the service.
		runtime.GC()
		t = time.Now()
		energy, evalErr := vmalloc.EvaluateObjective(inst, out.Placement)
		checkErr := vmalloc.CheckPlacement(inst, out.Placement)
		read = append(read, time.Since(t))
		cycling += time.Since(cycleT0)
		res.attempted++
		switch {
		case evalErr != nil:
			res.failed++
			res.problems = append(res.problems, "EvaluateObjective: "+evalErr.Error())
		case checkErr != nil:
			res.failed++
			res.problems = append(res.problems, "CheckPlacement: "+checkErr.Error())
		case len(out.Placement) != n:
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("placement holds %d of %d VMs", len(out.Placement), n))
		}
		if placement0 == nil {
			placement0 = out.Placement
		} else if !samePlacement(placement0, out.Placement) {
			res.failed++
			res.problems = append(res.problems, "placement differs between repetitions of the same instance")
		}
		reductions = append(reductions, reductionPct(energy.Total(), ffps.Energy.Total()))
		if st := out.Stats; st != nil {
			candidates = append(candidates, float64(st.CandidatesEvaluated)/float64(n))
			scanShare = append(scanShare, float64(st.ScanWall)/float64(st.TotalWall))
			utilisation = append(utilisation, st.WorkerUtilization)
		}
	}

	setup, op := env.setupOnce.Seconds(), median(alloc.msValues())
	placed := float64(n * len(alloc))
	res.report("setup_s", "s", setup, env.cal.atReference(setup, 0))
	res.report("vms_per_s", "1/s", placed/cycling.Seconds(), placed/env.cal.atReference(cycling.Seconds(), 0))
	res.report("op_p50_ms", "ms", op, env.cal.atReference(op, 0))
	res.e2e["peak_rss_mb"] = float64(selfHWMKB()) / 1024
	res.e2e["energy_reduction_pct"] = median(reductions)
	res.notef("%d Allocate calls of %d VMs on %d servers", len(alloc), n, len(inst.Servers))

	if env.traced {
		res.layer["core.alloc_candidates_per_vm"] = median(candidates)
		res.layer["core.alloc_scan_share"] = median(scanShare)
		res.layer["core.alloc_worker_utilisation"] = median(utilisation)
		res.layer["core.ffps_vms_per_s"] = float64(n) / ffpsWall.Seconds()
		res.layer["energy.evaluate_us_per_vm"] = median(read.msValues()) * 1000 / float64(n)
		res.layer["bench.server_cpu_us_per_vm"] = us(cpu) / float64(len(alloc)*n)
		probeCore(env.scale, res.layer)
		for i, d := range alloc {
			env.spans.add(clientSpan{TraceID: fmt.Sprintf("%032x", i+1), SpanID: fmt.Sprintf("%016x", i+1),
				Name: "vmalloc.Allocate", Start: starts[i], DurationNanos: d})
		}
	}
	return res, nil
}

func samePlacement(a, b map[int]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// selfHWMKB is the bench process's own peak resident set.
func selfHWMKB() int64 {
	s, _ := readProc(os.Getpid()) // zero on a read failure, which a never-zero metric makes visible
	return s.hwmKB
}
