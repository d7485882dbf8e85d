package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// AllocStats is the observability record of one Allocate run. Allocators
// populate it on the Result they return; a nil Stats means the allocator
// does not collect statistics.
//
// Wall times are wall-clock durations, not CPU time: ScanWall is the time
// spent selecting candidate servers (the parallelisable phase), CommitWall
// the time spent committing placements (inherently sequential), and
// TotalWall the whole run including sorting, validation and the final
// objective evaluation.
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
	// Workers is the size of the candidate-scan worker pool (1 means the
	// scans ran sequentially on the calling goroutine).
	Workers int `json:"workers"`
	// WorkerUtilization is the fraction of the pool's capacity that was
	// busy during scans: (summed worker busy time)/(ScanWall·Workers).
	// It is 1 for sequential runs and degrades toward 0 when shards are
	// too small to keep every worker fed.
	WorkerUtilization float64 `json:"workerUtilization"`
}

// minShard is the smallest number of servers worth handing to a worker:
// below this the channel handoff costs more than the scan itself.
const minShard = 16

// cancelCheckEvery bounds how many candidates a scan examines between
// context checks, so cancellation is observed promptly even on huge
// fleets.
const cancelCheckEvery = 256

// ScanEngine fans per-VM candidate scans out over a pool of workers and
// reduces them deterministically. An engine is created per Allocate call
// and must be Closed when the run ends (Close waits for every worker to
// exit, so cancelled runs never leak goroutines). It is not safe for
// concurrent scans: allocators scan one VM at a time, alternating scan
// and commit phases.
//
// Determinism: ArgMin partitions the index space [0,n) into contiguous
// chunks, each worker computes its chunk-local minimum keeping the lowest
// index on ties, and the reduction walks the chunks in ascending order
// with a strict "<" comparison. Because each candidate's score is
// computed by exactly one worker from read-only fleet state, the selected
// index is byte-identical to the sequential loop's at every pool size.
type ScanEngine struct {
	workers int
	jobs    chan func()
	wg      sync.WaitGroup
	busy    atomic.Int64 // nanoseconds workers spent inside scan chunks

	// Reusable scan state. One scan runs at a time (see above), so the
	// engine owns a single set of buffers instead of allocating per call:
	// results holds chunk-local minima across scans, chunkJob is the one
	// cached worker body every parallel scan submits (workers pull chunk
	// numbers from nextChunk), and cur* describe the scan in flight.
	// Writes to cur* happen before the channel sends that hand chunkJob
	// to the workers, and results are read only after scanWG.Wait(), so
	// no further synchronisation is needed.
	results   []chunkMin
	chunkJob  func()
	curEval   func(int) (float64, bool)
	curCtx    context.Context
	curCount  int
	curChunks int
	nextChunk atomic.Int32
	scanWG    sync.WaitGroup
}

// scanWorkers resolves the pool size: parallelism > 1 is that many workers,
// anything else, the default 0 included, the sequential scan — since the
// fleet keeps a row per server a candidate costs less than the hand-off.
func scanWorkers(parallelism int) int { return max(parallelism, 1) }

// NewScanEngine builds an engine for a fleet of n servers (each scan is told
// its own n). See Config.Parallelism for the meaning of parallelism.
func NewScanEngine(parallelism, n int) *ScanEngine {
	e := &ScanEngine{workers: scanWorkers(parallelism)}
	e.chunkJob = func() {
		start := time.Now()
		for {
			c := int(e.nextChunk.Add(1)) - 1
			if c >= e.curChunks {
				break
			}
			e.runChunk(c)
		}
		e.busy.Add(int64(time.Since(start)))
		e.scanWG.Done()
	}
	if e.workers > 1 {
		e.jobs = make(chan func(), e.workers)
		for i := 0; i < e.workers; i++ {
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				for job := range e.jobs {
					job()
				}
			}()
		}
	}
	return e
}

// Close shuts the pool down and waits for every worker to exit.
func (e *ScanEngine) Close() {
	if e.jobs != nil {
		close(e.jobs)
		e.wg.Wait()
		e.jobs = nil
	}
}

// NewStats returns a fresh stats record bound to this engine's pool size.
func (e *ScanEngine) NewStats() *AllocStats {
	return &AllocStats{Workers: e.workers}
}

// FinishStats seals the record at the end of a run that began at start.
func (e *ScanEngine) FinishStats(stats *AllocStats, start time.Time) *AllocStats {
	stats.TotalWall = time.Since(start)
	stats.WorkerUtilization = 1
	if e.workers > 1 && stats.ScanWall > 0 {
		u := float64(e.busy.Load()) / (float64(stats.ScanWall) * float64(e.workers))
		if u > 1 {
			u = 1
		}
		stats.WorkerUtilization = u
	}
	return stats
}

// chunkMin is one worker's chunk-local argmin.
type chunkMin struct {
	best                int
	cost                float64
	evaluated, rejected int64
}

// chunkBounds splits [0,n) into `chunks` contiguous near-equal ranges and
// returns the c-th one.
func chunkBounds(c, chunks, n int) (lo, hi int) {
	return c * n / chunks, (c + 1) * n / chunks
}

// numChunks caps the chunk count so no chunk is smaller than minShard.
func (e *ScanEngine) numChunks(n int) int {
	chunks := e.workers
	if maxChunks := (n + minShard - 1) / minShard; chunks > maxChunks {
		chunks = maxChunks
	}
	return chunks
}

// ArgMin returns the index in [0,n) minimising eval, with ties broken
// toward the lowest index — exactly the sequential
// "best < 0 || cost < bestCost" loop. eval must not mutate shared state
// (it runs concurrently for distinct indices) and returns ok=false for
// infeasible candidates, which are excluded from the minimum. The result
// is -1 when no candidate is feasible, and ctx.Err() when the context is
// cancelled mid-scan. Steady-state scans allocate nothing: the chunk
// buffers and worker jobs are owned by the engine and reused.
func (e *ScanEngine) ArgMin(ctx context.Context, stats *AllocStats, n int, eval func(int) (float64, bool)) (int, error) {
	scanStart := time.Now()
	defer func() { stats.ScanWall += time.Since(scanStart) }()
	if e.jobs == nil || n < 2*minShard {
		return e.argminSeq(ctx, stats, n, eval)
	}
	chunks := e.numChunks(n)
	e.curEval, e.curCtx, e.curCount, e.curChunks = eval, ctx, n, chunks
	e.nextChunk.Store(0)
	e.resultsFor(chunks)
	workers := e.workers
	if workers > chunks {
		workers = chunks
	}
	e.scanWG.Add(workers)
	for w := 0; w < workers; w++ {
		e.jobs <- e.chunkJob
	}
	e.scanWG.Wait()
	e.curEval, e.curCtx = nil, nil
	if err := ctx.Err(); err != nil {
		return -1, err
	}
	best := -1
	var bestCost float64
	for c := 0; c < chunks; c++ {
		stats.CandidatesEvaluated += e.results[c].evaluated
		stats.FeasibilityRejections += e.results[c].rejected
		if e.results[c].best < 0 {
			continue
		}
		// Chunks partition an ascending index sequence, so walking them
		// in order with a strict "<" keeps the lowest-index tie-break.
		if best < 0 || e.results[c].cost < bestCost {
			best, bestCost = e.results[c].best, e.results[c].cost
		}
	}
	return best, nil
}

// runChunk computes chunk c's local argmin over server indexes [lo, hi)
// into e.results[c].
func (e *ScanEngine) runChunk(c int) {
	lo, hi := chunkBounds(c, e.curChunks, e.curCount)
	r := &e.results[c]
	r.best, r.cost, r.evaluated, r.rejected = -1, 0, 0, 0
	for i := lo; i < hi; i++ {
		if (i-lo)%cancelCheckEvery == 0 && e.curCtx.Err() != nil {
			return
		}
		cost, ok := e.curEval(i)
		r.evaluated++
		if !ok {
			r.rejected++
			continue
		}
		if r.best < 0 || cost < r.cost {
			r.best, r.cost = i, cost
		}
	}
}

// resultsFor sizes the reusable chunk buffer and zeroes the entries the
// coming scan will use.
func (e *ScanEngine) resultsFor(chunks int) {
	if cap(e.results) < chunks {
		e.results = make([]chunkMin, chunks)
	}
	e.results = e.results[:chunks]
	for c := range e.results {
		e.results[c] = chunkMin{best: -1}
	}
}

// argminSeq is the sequential scan: the default, and what a pool falls back
// to on a small fleet.
func (e *ScanEngine) argminSeq(ctx context.Context, stats *AllocStats, n int, eval func(int) (float64, bool)) (int, error) {
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

// First returns the lowest index in [0,n) for which feasible returns
// true, or -1 if none does — the first-fit scan. Workers prune their
// chunks against the best index found so far, so an early hit keeps the
// scan close to the sequential cost while a late hit still parallelises.
// The evaluated/rejected counters depend on scheduling under parallelism;
// the returned index never does.
func (e *ScanEngine) First(ctx context.Context, stats *AllocStats, n int, feasible func(int) bool) (int, error) {
	scanStart := time.Now()
	defer func() { stats.ScanWall += time.Since(scanStart) }()
	if e.jobs == nil || n < 2*minShard {
		return e.firstSeq(ctx, stats, n, feasible)
	}
	chunks := e.numChunks(n)
	var found atomic.Int64
	found.Store(int64(n))
	e.resultsFor(chunks)
	results := e.results
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		c := c
		lo, hi := chunkBounds(c, chunks, n)
		wg.Add(1)
		e.jobs <- func() {
			start := time.Now()
			defer func() {
				e.busy.Add(int64(time.Since(start)))
				wg.Done()
			}()
			r := &results[c]
			for i := lo; i < hi; i++ {
				if (i-lo)%cancelCheckEvery == 0 && ctx.Err() != nil {
					return
				}
				if int64(i) >= found.Load() {
					return // a lower index already matched
				}
				r.evaluated++
				if !feasible(i) {
					r.rejected++
					continue
				}
				// CAS-min: record i unless a lower index is already in.
				for {
					cur := found.Load()
					if int64(i) >= cur || found.CompareAndSwap(cur, int64(i)) {
						break
					}
				}
				return
			}
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return -1, err
	}
	for c := range results {
		stats.CandidatesEvaluated += results[c].evaluated
		stats.FeasibilityRejections += results[c].rejected
	}
	if idx := found.Load(); idx < int64(n) {
		return int(idx), nil
	}
	return -1, nil
}

// firstSeq is the sequential first-fit scan.
func (e *ScanEngine) firstSeq(ctx context.Context, stats *AllocStats, n int, feasible func(int) bool) (int, error) {
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
