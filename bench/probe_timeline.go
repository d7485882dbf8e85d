package main

import (
	"fmt"
	"math/rand"

	"vmalloc/internal/timeline"
)

// probeTimeline times timeline.Ledger with k live reservations: every
// mutation recompiles the step function, the O(k log k) cost the roadmap
// names.
func probeTimeline(scale int, out map[string]float64) {
	for _, k := range []int{8, 512} {
		rng := rand.New(rand.NewSource(1))
		l := timeline.NewLedger()
		var extra timeline.Reservation
		for i := 0; i <= k; i++ {
			start := 1 + rng.Intn(600)
			extra = timeline.Reservation{
				Interval: timeline.Interval{Start: start, End: start + 1 + rng.Intn(60)},
				CPU:      1 + float64(rng.Intn(8)), Mem: 1 + float64(rng.Intn(16)),
			}
			if i < k {
				l.Add(i, extra)
			}
		}
		add, remove := timePair(400/scale, func() { l.Add(k, extra) }, func() { l.Remove(k) })
		out[fmt.Sprintf("timeline.add_ns_k%d", k)] = add
		if k == 512 {
			out["timeline.remove_ns_k512"] = remove
			out["timeline.maxusage_ns_k512"] = timeOp(4000/scale, func() { l.MaxUsage(200, 260) })
		}
	}
}
