// Package metrics computes the evaluation metrics of paper §IV: average
// CPU and memory utilisation of servers (averaged over nonzero samples,
// i.e. while a server is actually hosting VMs) and the system load.
package metrics

import (
	"fmt"

	"vmalloc/internal/energy"
	"vmalloc/internal/model"
	"vmalloc/internal/timeline"
)

// Utilization holds the paper's two utilisation metrics as fractions in
// [0, 1].
type Utilization struct {
	CPU float64 `json:"cpu"`
	Mem float64 `json:"mem"`
}

// AverageUtilization computes the average CPU and memory utilisation of a
// placement exactly as §IV-C defines it: the utilisation of a server at
// time t is the fraction of its capacity used by VMs running at t, and the
// average is taken over the nonzero samples only — it measures usage while
// the server is busy.
//
// CPU and memory averages are taken over the same sample set (times where
// the server hosts at least one VM), so a busy server contributes its
// memory utilisation even when only its CPU-heavy VMs dominate, matching
// the paper's paired plots.
func AverageUtilization(inst model.Instance, placement map[int]int) (Utilization, error) {
	serverIdx := make(map[int]int, len(inst.Servers))
	for i, s := range inst.Servers {
		serverIdx[s.ID] = i
	}
	// Per-server per-time usage accumulated with difference arrays.
	type usage struct{ cpu, mem []float64 }
	use := make([]usage, len(inst.Servers))
	touched := make([]bool, len(inst.Servers))
	for _, v := range inst.VMs {
		sid, ok := placement[v.ID]
		if !ok {
			return Utilization{}, fmt.Errorf("metrics: vm %d is unplaced", v.ID)
		}
		i, ok := serverIdx[sid]
		if !ok {
			return Utilization{}, fmt.Errorf("metrics: unknown server %d", sid)
		}
		if !touched[i] {
			use[i] = usage{
				cpu: make([]float64, inst.Horizon+2),
				mem: make([]float64, inst.Horizon+2),
			}
			touched[i] = true
		}
		use[i].cpu[v.Start] += v.Demand.CPU
		use[i].cpu[v.End+1] -= v.Demand.CPU
		use[i].mem[v.Start] += v.Demand.Mem
		use[i].mem[v.End+1] -= v.Demand.Mem
	}
	var (
		sumCPU, sumMem float64
		samples        int
	)
	for i, s := range inst.Servers {
		if !touched[i] {
			continue
		}
		var curCPU, curMem float64
		for t := 1; t <= inst.Horizon; t++ {
			curCPU += use[i].cpu[t]
			curMem += use[i].mem[t]
			if curCPU > 0 || curMem > 0 {
				sumCPU += curCPU / s.Capacity.CPU
				sumMem += curMem / s.Capacity.Mem
				samples++
			}
		}
	}
	if samples == 0 {
		return Utilization{}, nil
	}
	return Utilization{CPU: sumCPU / float64(samples), Mem: sumMem / float64(samples)}, nil
}

// PeakConcurrency returns the maximum number of VMs alive at any time unit
// — a cheap feasibility signal for workload calibration.
func PeakConcurrency(inst model.Instance) int {
	diff := make([]int, inst.Horizon+2)
	for _, v := range inst.VMs {
		diff[v.Start]++
		diff[v.End+1]--
	}
	peak, cur := 0, 0
	for t := 1; t <= inst.Horizon; t++ {
		cur += diff[t]
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// ActiveServersSeries returns, for each time unit 1..Horizon, the number
// of servers that are in the active state under the placement's optimal
// activity schedule (busy segments plus bridged idle gaps). It is the
// fleet's power-state timeline — the quantity dynamic right-sizing work
// plots against diurnal load.
func ActiveServersSeries(inst model.Instance, placement map[int]int) ([]int, error) {
	perServer := make(map[int][]model.VM, len(inst.Servers))
	for _, v := range inst.VMs {
		sid, ok := placement[v.ID]
		if !ok {
			return nil, fmt.Errorf("metrics: vm %d is unplaced", v.ID)
		}
		perServer[sid] = append(perServer[sid], v)
	}
	diff := make([]int, inst.Horizon+2)
	for sid, vms := range perServer {
		srv, ok := inst.ServerByID(sid)
		if !ok {
			return nil, fmt.Errorf("metrics: unknown server %d", sid)
		}
		var busy timeline.SegmentSet
		for _, v := range vms {
			busy.Insert(timeline.Interval{Start: v.Start, End: v.End})
		}
		for _, iv := range energy.ActiveIntervals(srv, &busy) {
			diff[iv.Start]++
			if iv.End+1 < len(diff) {
				diff[iv.End+1]--
			}
		}
	}
	series := make([]int, inst.Horizon)
	cur := 0
	for t := 1; t <= inst.Horizon; t++ {
		cur += diff[t]
		series[t-1] = cur
	}
	return series, nil
}
