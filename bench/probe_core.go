package main

import (
	"context"
	"runtime"

	"vmalloc/internal/core"
)

// probeCore times core.ScanEngine.ArgMin over 512 candidates whose
// evaluation costs next to nothing, so what is left is the engine's own
// cost per candidate: sequential (p1) and with one worker per CPU (pn).
func probeCore(scale int, out map[string]float64) {
	const n = 512
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = float64((i*7919)%n) + 1
	}
	eval := func(i int) (float64, bool) { return scores[i], true }
	ctx := context.Background()
	for _, p := range []struct {
		name    string
		workers int
	}{{"core.argmin_ns_per_candidate_p1", 1}, {"core.argmin_ns_per_candidate_pn", runtime.NumCPU()}} {
		e := core.NewScanEngine(p.workers, n)
		stats := e.NewStats()
		out[p.name] = timeOp(2000/scale, func() { e.ArgMin(ctx, stats, n, eval) }) / n //nolint:errcheck // the context is never cancelled
		e.Close()
	}
}
