package loadgen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"
	"time"

	"vmalloc/internal/api"
)

// Options tune how a Runner replays a schedule.
type Options struct {
	// Workers sizes the pool issuing concurrent requests (admission
	// chunks and releases); 0 means 8.
	Workers int
	// MinuteInterval is the wall-clock budget per fleet minute — the
	// time-compression knob (20ms replays a 1440-minute day in ~29s).
	// 0 runs flat out. Pacing is open-loop: a step that misses its
	// target is issued immediately and counted in Report.BehindSteps,
	// never silently rescheduled.
	MinuteInterval time.Duration
	// Chunk splits a step's admissions into concurrent HTTP calls of at
	// most this many requests — the concurrency stressor for the
	// server's micro-batcher. 0 sends each step as one call, which also
	// makes the admission/rejection sequence deterministic for a given
	// (spec, seed) even under capacity pressure; chunked runs may
	// reorder placement between racing calls when capacity is tight.
	Chunk int
	// SkipClock disables the per-step /v1/clock advances (and the final
	// drain tick), for servers whose clock is driven elsewhere.
	SkipClock bool
	// ConsolidateEvery triggers a consolidation pass
	// (POST /v1/consolidate) after the clock tick of every step whose
	// minute is a multiple of this value; 0 never consolidates.
	ConsolidateEvery int
	// ConsolidatePolicy is the victim-selection policy for those passes;
	// "" lets the server pick its configured default.
	ConsolidatePolicy string
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return 8
	}
	return o.Workers
}

// StateSummary is the slice of server state the runner's report needs,
// common to a single shard's state and a vmgate's aggregated state.
type StateSummary struct {
	Now         int
	Residents   int
	TotalEnergy float64
	Digest      string
}

// Runner replays a Schedule against a server, minute-step by
// minute-step: advance the clock, issue the minute's admissions, then
// its releases, pacing steps by MinuteInterval. Within a step calls run
// concurrently over the worker pool; the step boundary is a barrier, so
// the operation order the server observes is reproducible at minute
// granularity.
type Runner struct {
	// Client is pointed at one vmserve or at a gate (a vmgate over the
	// network, or an in-process shard.Gate behind NewHandlerClient): the
	// wire contract is the same, so a schedule replays unchanged against
	// any topology.
	Client   *Client
	Schedule *Schedule
	Opts     Options
}

// run-time collector shared by a step's concurrent jobs.
type collector struct {
	mu       sync.Mutex
	admitLat []time.Duration
	relLat   []time.Duration
	clockLat []time.Duration
	errs     []error
}

func (co *collector) admit(d time.Duration) {
	co.mu.Lock()
	co.admitLat = append(co.admitLat, d)
	co.mu.Unlock()
}

func (co *collector) release(d time.Duration) {
	co.mu.Lock()
	co.relLat = append(co.relLat, d)
	co.mu.Unlock()
}

func (co *collector) clock(d time.Duration) {
	co.mu.Lock()
	co.clockLat = append(co.clockLat, d)
	co.mu.Unlock()
}

func (co *collector) err(e error) {
	co.mu.Lock()
	co.errs = append(co.errs, e)
	co.mu.Unlock()
}

// forEach drains jobs through the worker pool and waits for all of them.
func (r *Runner) forEach(jobs []func()) {
	w := r.Opts.workers()
	if w > len(jobs) {
		w = len(jobs)
	}
	if w <= 1 {
		for _, j := range jobs {
			j()
		}
		return
	}
	ch := make(chan func())
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				j()
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
}

// releaseOutcome is one release's result, indexed so the digest log can
// be written in schedule order after the concurrent calls finish.
type releaseOutcome struct {
	issued   bool
	released bool
	failed   bool
}

// Run replays the schedule. The returned report is complete even when an
// operation failed (failures are counted, not fatal); the error is
// non-nil only when the run could not proceed at all (context ended, or
// the final state scrape failed).
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	sched := r.Schedule
	// Profile and Seed are presentation fields the caller fills in (the
	// runner only sees the materialized schedule).
	rep := &Report{Steps: len(sched.Steps)}
	retriedBefore := r.Client.Retried()

	before, err := r.Client.Metrics(ctx)
	if err != nil {
		before = nil // the run proceeds; the report just loses the delta
	}

	co := &collector{}
	// A set, not a table indexed by id: trace ids can be sparse and huge.
	accepted := make(map[int]bool, sched.NumVMs)
	outcomes := sha256.New()
	start := time.Now()

	for i := range sched.Steps {
		step := &sched.Steps[i]
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		r.pace(ctx, rep, start, step.Minute)
		if !r.Opts.SkipClock {
			r.tick(ctx, rep, co, step.Minute)
		}
		if r.Opts.ConsolidateEvery > 0 && step.Minute%r.Opts.ConsolidateEvery == 0 {
			r.consolidate(ctx, rep, co, step.Minute)
		}
		r.admitStep(ctx, rep, co, step, accepted, outcomes)
		r.releaseStep(ctx, rep, co, step, accepted, outcomes)
	}
	// Drain: advance past the last scheduled end so every departure and
	// idle-sleep the run provoked is processed before the final scrape.
	if !r.Opts.SkipClock && sched.Horizon > 0 {
		r.tick(ctx, rep, co, sched.Horizon+1)
	}
	rep.Wall = time.Since(start)

	rep.Errors = len(co.errs)
	rep.Retries = r.Client.Retried() - retriedBefore
	rep.AdmitLatency = summarize(co.admitLat)
	rep.ReleaseLatency = summarize(co.relLat)
	rep.ClockLatency = summarize(co.clockLat)
	rep.OutcomeDigest = hex.EncodeToString(outcomes.Sum(nil))

	if before != nil {
		if after, err := r.Client.Metrics(ctx); err == nil {
			rep.MetricsDelta = after.Delta(before)
		}
	}
	sum, err := r.Client.StateSummary(ctx)
	if err != nil {
		return rep, fmt.Errorf("loadgen: final state scrape: %w", err)
	}
	rep.FinalNow = sum.Now
	rep.FinalResidents = sum.Residents
	rep.FinalEnergy = sum.TotalEnergy
	rep.StateDigest = sum.Digest
	// Best-effort: per-stage span latencies (queue wait, scan,
	// fsync, ...) from the server's trace buffer, absent when the server
	// runs without a span store.
	if tr, err := r.Client.DebugTraces(ctx, ""); err == nil {
		rep.StageLatency = stageLatency(tr)
	}
	return rep, nil
}

// pace sleeps until the step's wall-clock target (open-loop: late steps
// proceed immediately and are counted).
func (r *Runner) pace(ctx context.Context, rep *Report, start time.Time, minute int) {
	if r.Opts.MinuteInterval <= 0 {
		return
	}
	target := start.Add(time.Duration(minute-1) * r.Opts.MinuteInterval)
	now := time.Now()
	if now.Before(target) {
		select {
		case <-time.After(target.Sub(now)):
		case <-ctx.Done():
		}
		return
	}
	if now.Sub(target) > r.Opts.MinuteInterval {
		rep.BehindSteps++
	}
}

// consolidate runs one pay-for-itself pass between the tick and the
// minute's admissions. The step barrier means no pass races another, so
// a consolidation_busy here is a genuine failure, not contention.
func (r *Runner) consolidate(ctx context.Context, rep *Report, co *collector, minute int) {
	res, err := r.Client.Consolidate(ctx, api.ConsolidateRequest{Policy: r.Opts.ConsolidatePolicy})
	if err != nil {
		co.err(fmt.Errorf("consolidate at minute %d: %w", minute, err))
		return
	}
	rep.Consolidations++
	rep.Migrations += res.Executed
	rep.MigrationSaved += res.EnergySavedWattMinutes
}

func (r *Runner) tick(ctx context.Context, rep *Report, co *collector, minute int) {
	t0 := time.Now()
	_, err := r.Client.AdvanceClock(ctx, minute)
	co.clock(time.Since(t0))
	if err != nil {
		co.err(fmt.Errorf("clock %d: %w", minute, err))
		return
	}
	rep.ClockTicks++
}

// admitStep issues the minute's admissions (chunked over the pool when
// Opts.Chunk > 0) and folds the outcomes into the report, the accepted
// set and the outcome digest — the digest walk is in schedule order,
// independent of call-completion order.
func (r *Runner) admitStep(ctx context.Context, rep *Report, co *collector, step *Step, accepted map[int]bool, outcomes hash.Hash) {
	if len(step.Admits) == 0 {
		return
	}
	chunkSize := r.Opts.Chunk
	if chunkSize <= 0 {
		chunkSize = len(step.Admits)
	}
	type chunkResult struct {
		adms []api.AdmitResponse
		err  error
	}
	var chunks [][]api.AdmitRequest
	for off := 0; off < len(step.Admits); off += chunkSize {
		end := off + chunkSize
		if end > len(step.Admits) {
			end = len(step.Admits)
		}
		chunks = append(chunks, step.Admits[off:end])
	}
	results := make([]chunkResult, len(chunks))
	jobs := make([]func(), len(chunks))
	for ci := range chunks {
		ci := ci
		jobs[ci] = func() {
			t0 := time.Now()
			adms, err := r.Client.Admit(ctx, chunks[ci])
			co.admit(time.Since(t0))
			results[ci] = chunkResult{adms: adms, err: err}
		}
	}
	r.forEach(jobs)

	for ci, res := range results {
		rep.Sent += len(chunks[ci])
		if res.err != nil {
			co.err(fmt.Errorf("admit minute %d: %w", step.Minute, res.err))
			for _, req := range chunks[ci] {
				fmt.Fprintf(outcomes, "a %d E\n", req.ID)
			}
			continue
		}
		for _, adm := range res.adms {
			if adm.Accepted {
				rep.Accepted++
				accepted[adm.ID] = true
				fmt.Fprintf(outcomes, "a %d 1\n", adm.ID)
			} else {
				rep.Rejected++
				fmt.Fprintf(outcomes, "a %d 0\n", adm.ID)
			}
		}
	}
}

// releaseStep issues the minute's releases concurrently, skipping VMs
// whose admission was rejected (releasing them would only 404).
func (r *Runner) releaseStep(ctx context.Context, rep *Report, co *collector, step *Step, accepted map[int]bool, outcomes hash.Hash) {
	if len(step.Releases) == 0 {
		return
	}
	results := make([]releaseOutcome, len(step.Releases))
	var jobs []func()
	for ri, id := range step.Releases {
		if !accepted[id] {
			continue
		}
		ri, id := ri, id
		results[ri].issued = true
		jobs = append(jobs, func() {
			t0 := time.Now()
			ok, err := r.Client.Release(ctx, id)
			co.release(time.Since(t0))
			if err != nil {
				results[ri].failed = true
				co.err(fmt.Errorf("release %d at minute %d: %w", id, step.Minute, err))
				return
			}
			results[ri].released = ok
		})
	}
	r.forEach(jobs)
	for ri, id := range step.Releases {
		res := results[ri]
		switch {
		case !res.issued:
			rep.ReleaseSkips++
			fmt.Fprintf(outcomes, "r %d S\n", id)
		case res.failed:
			fmt.Fprintf(outcomes, "r %d E\n", id)
		case res.released:
			rep.Releases++
			fmt.Fprintf(outcomes, "r %d 1\n", id)
		default:
			rep.ReleaseMisses++
			fmt.Fprintf(outcomes, "r %d 0\n", id)
		}
	}
}
