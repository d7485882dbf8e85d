package core

import (
	"context"
	"time"
)

// AllocStats is the observability record of one Allocate run. Allocators
// populate it on the Result they return; a nil Stats means the allocator
// does not collect statistics.
//
// Wall times are wall-clock durations, not CPU time: ScanWall is the time
// spent selecting candidate servers, CommitWall the time spent committing
// placements, and TotalWall the whole run including sorting, validation and
// the final objective evaluation.
type AllocStats struct {
	// VMsPlaced is the number of VMs committed to a server.
	VMsPlaced int `json:"vmsPlaced"`
	// CandidatesEvaluated counts every (VM, server) pair examined during
	// candidate scans, feasible or not.
	CandidatesEvaluated int64 `json:"candidatesEvaluated"`
	// FeasibilityRejections counts examined pairs that failed the
	// feasibility check (insufficient spare CPU or memory).
	FeasibilityRejections int64 `json:"feasibilityRejections"`
	// ScanWall is the wall time spent in candidate scans.
	ScanWall time.Duration `json:"scanWallNanos"`
	// CommitWall is the wall time spent committing placements.
	CommitWall time.Duration `json:"commitWallNanos"`
	// TotalWall is the wall time of the whole Allocate call.
	TotalWall time.Duration `json:"totalWallNanos"`
	// WorkerUtilization is 1: scans run on the calling goroutine. It stays
	// for bench/offline.go, which reads it (see the shim below).
	WorkerUtilization float64 `json:"workerUtilization"`
}

// cancelCheckEvery bounds how many candidates a scan examines between
// context checks, so cancellation is observed promptly even on huge
// fleets.
const cancelCheckEvery = 256

// argmin returns the index in [0,n) minimising eval, ties going to the
// lowest index; eval returns ok=false for an infeasible candidate, which is
// left out of the minimum. The result is -1 when no candidate is feasible,
// and ctx.Err() when the context is cancelled mid-scan.
func argmin(ctx context.Context, stats *AllocStats, n int, eval func(int) (float64, bool)) (int, error) {
	scanStart := time.Now()
	defer func() { stats.ScanWall += time.Since(scanStart) }()
	best := -1
	var bestCost float64
	for i := 0; i < n; i++ {
		if i%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return -1, err
			}
		}
		cost, ok := eval(i)
		stats.CandidatesEvaluated++
		if !ok {
			stats.FeasibilityRejections++
			continue
		}
		if best < 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best, nil
}

// first returns the lowest index in [0,n) for which feasible returns true,
// or -1 if none does: the first-fit scan.
func first(ctx context.Context, stats *AllocStats, n int, feasible func(int) bool) (int, error) {
	scanStart := time.Now()
	defer func() { stats.ScanWall += time.Since(scanStart) }()
	for i := 0; i < n; i++ {
		if i%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return -1, err
			}
		}
		stats.CandidatesEvaluated++
		if feasible(i) {
			return i, nil
		}
		stats.FeasibilityRejections++
	}
	return -1, nil
}

// ScanEngine, its constructor and its three methods are what is left of the
// scan worker pool, kept because bench/probe_core.go compiles against them
// (bench/SURFACE.md) and a PR that changes the program may not edit bench/.
// Nothing else calls them (make fence). They go with the two
// core.argmin_ns_per_candidate probes: ROADMAP item 1 (f).
type ScanEngine struct{}

// NewScanEngine ignores both arguments, once a pool size and a fleet size.
func NewScanEngine(_, _ int) *ScanEngine { return &ScanEngine{} }

// NewStats returns an empty record.
func (*ScanEngine) NewStats() *AllocStats { return &AllocStats{} }

// ArgMin is the loop Scan.ArgMin runs.
func (*ScanEngine) ArgMin(ctx context.Context, stats *AllocStats, n int, eval func(int) (float64, bool)) (int, error) {
	return argmin(ctx, stats, n, eval)
}

// Close does nothing.
func (*ScanEngine) Close() {}
