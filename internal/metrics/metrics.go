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
	if err := inst.Validate(); err != nil {
		return Utilization{}, err
	}
	byServer, err := inst.ByServer(placement)
	if err != nil {
		return Utilization{}, fmt.Errorf("metrics: %w", err)
	}
	var (
		sumCPU, sumMem float64
		samples        int
	)
	for i, s := range inst.Servers {
		for _, u := range model.Usage(nil, byServer[i]) {
			if !u.IsZero() {
				sumCPU += u.CPU / s.Capacity.CPU
				sumMem += u.Mem / s.Capacity.Mem
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
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	byServer, err := inst.ByServer(placement)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	diff := make([]int, inst.Horizon+2)
	for i, vms := range byServer {
		var busy timeline.SegmentSet
		for _, v := range vms {
			busy.Insert(timeline.Interval{Start: v.Start, End: v.End})
		}
		for _, iv := range energy.ActiveIntervals(inst.Servers[i], &busy) {
			diff[iv.Start]++
			diff[iv.End+1]--
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
