// Package cluster turns the event-driven fleet simulator into a
// long-running allocation service. A Cluster owns an online.Fleet and a
// placement policy behind a concurrency-safe API: callers admit VM
// requests (singly or in batches), release them early, advance the fleet
// clock, and read a consistent state snapshot at any moment.
//
// Admissions are micro-batched: concurrent Admit calls landing within the
// configured window are collected, ordered deterministically by
// (start, ID), and placed one VM at a time through the same candidate
// scan the engines use — scored policies fan the scan out over the
// parallel scan engine, preserving the lowest-index tie-break, so a
// batch's placements are byte-identical to admitting its requests
// sequentially in that order.
//
// Durability is an append-only journal of CRC-framed binary records plus
// periodic snapshots (see journal.go). Appended records are made
// durable by group commit: a batch's fsync wait happens off the
// dispatcher goroutine, so the next batch's candidate scan overlaps it
// and concurrent batches share one disk flush; an admission is
// acknowledged only after the flush covering it completes. Reopening a
// journal directory replays the log on top of the snapshot and
// reconstructs the exact pre-crash state, tolerating a torn final
// record. A journal write failure is sticky (ErrJournalBroken): the
// cluster refuses further mutations rather than journal past the hole,
// until a successful Snapshot re-establishes durability. Overload
// degrades gracefully: a VM no server can host yields a structured
// rejection in the Admission result, never an error path that kills the
// service.
package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/arena"
	"vmalloc/internal/core"
	"vmalloc/internal/energy"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
	"vmalloc/internal/online"
)

// DefaultSnapshotEvery is the number of journaled mutations between
// automatic snapshots when Config.SnapshotEvery is 0.
const DefaultSnapshotEvery = 256

// DefaultDonorUtilization is the donor CPU-utilisation threshold when
// Config.DonorUtilization is 0: active servers below half capacity are
// drain candidates.
const DefaultDonorUtilization = 0.5

// migrationHistoryLimit bounds the retained migration history (the GET
// /v1/migrations backing store); the oldest records are evicted first.
// The lifetime count in State.Migrations is not affected by eviction.
const migrationHistoryLimit = 1024

// ErrClosed is returned by mutating calls after Close.
var ErrClosed = errors.New("cluster: closed")

// ErrCorruptJournal is wrapped by Open when the journal directory holds
// durable state that cannot be restored: a snapshot that does not parse, a
// journal record that is malformed before the tail (a torn *final* record
// is an interrupted write and is dropped instead), or a record sequence
// that does not replay cleanly against the fleet. The directory is left
// untouched so the operator can inspect or repair it.
var ErrCorruptJournal = errors.New("cluster: corrupt journal")

// ErrJournalBroken is wrapped by every mutating call after a journal write
// fails. The failure is sticky: the cluster refuses further mutations, so
// the log never grows past the hole and a restart always recovers the
// journaled prefix exactly. An append failure stops its batch on the spot;
// a group-commit fsync failure turns sticky when the flush outcome is
// observed, so a batch pipelined behind the failing flush may still have
// appended — its records extend the journaled prefix in order (replay
// stays consistent), and its clients see this error unless a flush
// covering their records completed. A subsequent successful Snapshot
// (which captures the full in-memory state and compacts the log) heals the
// cluster and re-enables mutation.
var ErrJournalBroken = errors.New("cluster: journal broken")

// NotResidentError reports a release of a VM that is not currently
// admitted (it never was, already departed, or was already released).
type NotResidentError struct {
	ID int
}

func (e *NotResidentError) Error() string {
	return fmt.Sprintf("cluster: vm %d is not resident", e.ID)
}

// ErrConsolidationBusy is returned by Consolidate when another
// consolidation pass is already in flight; at most one runs at a time.
var ErrConsolidationBusy = errors.New("cluster: consolidation pass already running")

// MigrationInfeasibleError reports a migration request the current fleet
// state cannot satisfy: the target is unknown, lacks capacity over the
// VM's remaining interval, cannot wake by the handoff minute, or the VM
// has no remaining minutes to move. The fleet is untouched.
type MigrationInfeasibleError struct {
	VM     int
	Server int // target server ID
	Reason string
}

func (e *MigrationInfeasibleError) Error() string {
	return fmt.Sprintf("cluster: cannot migrate vm %d to server %d: %s", e.VM, e.Server, e.Reason)
}

// AdoptInfeasibleError reports an adoption (POST /v1/adoptions) the
// current fleet state cannot satisfy: no server can host the VM's
// remaining interval, or the interval is entirely past. The fleet is
// untouched. A rebalancer treats it as "skip this move" — most often
// the VM simply departed between planning and draining.
type AdoptInfeasibleError struct {
	VM     int
	Reason string
}

func (e *AdoptInfeasibleError) Error() string {
	return fmt.Sprintf("cluster: cannot adopt vm %d: %s", e.VM, e.Reason)
}

// Config configures a Cluster.
type Config struct {
	// Servers is the fleet; required, validated on Open. A journal
	// directory must always be reopened with the server list it was
	// created with.
	Servers []model.Server
	// Policy places VMs; nil means online.MinCostPolicy. Policies
	// implementing online.ScoredPolicy are scanned through the parallel
	// scan engine.
	Policy online.Policy
	// IdleTimeout follows online.Engine.IdleTimeout: minutes an empty
	// active server waits before sleeping; negative never, 0 immediately.
	IdleTimeout int
	// BatchWindow is how long the dispatcher keeps collecting concurrent
	// Admit calls after the first one before placing the batch. Zero
	// batches opportunistically: whatever is already queued is taken, with
	// no added latency.
	BatchWindow time.Duration
	// Parallelism sizes the candidate-scan worker pool as in
	// core.Config.Parallelism: 0 picks an automatic size, 1 forces
	// sequential scans.
	Parallelism int
	// Dir is the journal directory. Empty means volatile: no journal, no
	// snapshots, state dies with the process.
	Dir string
	// SnapshotEvery is the number of journaled mutations between automatic
	// snapshots; 0 means DefaultSnapshotEvery, negative snapshots only on
	// Close. Ignored when Dir is empty.
	SnapshotEvery int
	// DisableFsync skips the group-commit fsyncs of journal appends.
	// UNSAFE for production: an acknowledged admission then survives a
	// process crash but not power loss or a kernel crash. It exists for
	// soak and load tests, where the journal's logical replay guarantees
	// are under test and the physical durability of a throwaway directory
	// is not.
	DisableFsync bool
	// MigrationCostPerGB is the Eq. 17 migration overhead in watt-minutes
	// per GB of a VM's memory demand. The pay-for-itself rule charges it
	// against every planned move, so a higher cost makes consolidation
	// more conservative. 0 treats migrations as free.
	MigrationCostPerGB float64
	// ConsolidatePolicy is the default victim-selection policy for
	// consolidation passes: api.PolicyMinMigrationTime (the default when
	// empty) or api.PolicyMinUtilization.
	ConsolidatePolicy string
	// MaxMigrationsPerPass caps the moves one consolidation pass may
	// execute; 0 means unlimited.
	MaxMigrationsPerPass int
	// DonorUtilization is the CPU-utilisation fraction below which an
	// active server is considered a drain candidate; 0 means
	// DefaultDonorUtilization. The pay-for-itself rule still decides
	// whether any candidate actually drains.
	DonorUtilization float64
	// Recorder, when non-nil, receives one obs.Decision per admission,
	// rejection, release and migration — the flight recorder behind the
	// service's debug surface. Recording is passive: it never changes a
	// placement.
	Recorder *obs.FlightRecorder
	// Logger receives the cluster's structured service log (journal
	// failures, snapshots, batch traces at debug level). Nil discards.
	Logger *slog.Logger
	// Arena, when non-nil, receives the cluster's admission batches,
	// releases and clock advances for counterfactual shadow evaluation
	// of challenger policies. Forwarding is strictly off the hot path:
	// non-blocking offers into the arena's bounded queue, never a wait,
	// never a change to a live placement or to the state digest.
	Arena *arena.Arena
	// Spans, when non-nil, receives one typed trace span per pipeline
	// stage (decode, queue wait, scan, commit, journal append, fsync,
	// migrate, consolidate pass, shadow-arena enqueue) for requests that
	// carried a trace context in. Like the flight recorder, recording is
	// passive and never changes a placement or the state digest.
	Spans *obs.SpanStore
	// Energy, when non-nil, receives one fleet energy sample per batch,
	// release, migration, consolidation pass and clock advance — the
	// energy-over-time curve behind GET /v1/debug/energy and the
	// vmalloc_energy_* gauges. Sampling is read-only on the fleet.
	Energy *obs.EnergyRecorder
}

// VMRequest is one admission request.
type VMRequest struct {
	// ID identifies the VM; 0 lets the cluster assign the next free ID.
	ID int `json:"id,omitempty"`
	// Type is an optional free-form label.
	Type string `json:"type,omitempty"`
	// Demand is the VM's stable resource demand.
	Demand model.Resources `json:"demand"`
	// Start is the requested start minute; 0 means "now", and a start in
	// the past is clamped to the current clock.
	Start int `json:"start,omitempty"`
	// DurationMinutes is how long the VM runs; must be ≥ 1.
	DurationMinutes int `json:"durationMinutes"`
}

// Admission is the per-request outcome of an Admit call.
type Admission struct {
	// ID is the VM's identity (assigned by the cluster when the request
	// left it 0).
	ID int `json:"id"`
	// Accepted reports whether the VM was placed. A false value is the
	// graceful-degradation path: the cluster stays up and Reason says why.
	Accepted bool `json:"accepted"`
	// Server is the hosting server's ID (not index) when accepted.
	Server int `json:"server,omitempty"`
	// Start and End bound the minutes the VM will occupy; Start includes
	// any wake-up delay beyond the requested start.
	Start int `json:"start,omitempty"`
	End   int `json:"end,omitempty"`
	// Reason explains a rejection.
	Reason string `json:"reason,omitempty"`
}

// admitCall is one Admit call in flight to the dispatcher, carrying the
// trace context captured at the API edge: the request id, the HTTP
// decode span, and the enqueue instant (queue-wait starts here).
type admitCall struct {
	reqs     []VMRequest
	adms     []Admission
	reqID    string
	trace    obs.TraceContext
	decode   time.Duration
	enqueued time.Time
	reply    chan admitReply
}

type admitReply struct {
	adms []Admission
	err  error
}

// Cluster is the long-running allocation service. All methods are safe
// for concurrent use.
type Cluster struct {
	cfg    Config
	policy online.Policy
	scored online.ScoredPolicy // non-nil when policy implements it
	scan   *core.ScanEngine
	rec    *obs.FlightRecorder // nil when no recorder is configured
	log    *slog.Logger        // never nil (NopLogger by default)

	mu            sync.Mutex
	fleet         *online.Fleet
	jr            *journal // nil when volatile
	jfail         error    // sticky ErrJournalBroken wrap; nil when healthy
	nextID        int
	sinceSnapshot int
	closed        bool
	met           metrics
	// migHistory is the retained migration history (bounded, oldest
	// evicted), rebuilt on restart from the snapshot plus journal replay;
	// migSaved sums the planner's net-saving estimates over the cluster's
	// lifetime; volMigSeq numbers migrations on volatile clusters, where
	// there is no journal sequence to borrow.
	migHistory []api.MigrationRecord
	migSaved   float64
	volMigSeq  int64
	// consolidating single-flights Consolidate: a trigger that races an
	// in-flight pass fails fast with ErrConsolidationBusy instead of
	// queueing behind it.
	consolidating atomic.Bool

	// candBuf is the reusable candidate-index buffer the feasibility
	// index fills for each scan; only the dispatcher (processBatch)
	// touches it, under mu.
	candBuf []int
	// fullScan is an in-package test hook: scan every server instead of
	// the feasibility index's candidates. The determinism suite sets it to
	// prove placements are byte-identical either way; nothing else does.
	fullScan bool

	admitCh chan *admitCall
	stopCh  chan struct{}
	doneCh  chan struct{}
	// inflight counts batches whose group-commit wait still runs after
	// processBatch returned; Close waits for them before closing the
	// journal.
	inflight  sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// Open builds a cluster. When cfg.Dir holds a previous incarnation's
// journal, the durable state is restored first: the snapshot is loaded,
// then every journal record past it is replayed, so the returned cluster
// is byte-identical (in its State) to the one that wrote the log.
func Open(cfg Config) (*Cluster, error) {
	if len(cfg.Servers) == 0 {
		return nil, errors.New("cluster: no servers configured")
	}
	for _, s := range cfg.Servers {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	if cfg.Policy == nil {
		cfg.Policy = &online.MinCostPolicy{}
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	c := &Cluster{
		cfg:     cfg,
		policy:  cfg.Policy,
		scan:    core.NewScanEngine(cfg.Parallelism, len(cfg.Servers)),
		rec:     cfg.Recorder,
		log:     cfg.Logger,
		nextID:  1,
		admitCh: make(chan *admitCall),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
		met:     newMetrics(),
	}
	if c.log == nil {
		c.log = obs.NopLogger()
	}
	c.scored, _ = cfg.Policy.(online.ScoredPolicy)
	if cfg.Dir == "" {
		c.fleet = online.NewFleet(cfg.Servers, cfg.IdleTimeout)
	} else if err := c.restore(); err != nil {
		c.scan.Close()
		return nil, err
	}
	go c.dispatch()
	return c, nil
}

// restore loads snapshot + journal from cfg.Dir and replays. Durable
// state that does not restore cleanly is reported as ErrCorruptJournal.
func (c *Cluster) restore() error {
	jr, snap, recs, err := openJournal(c.cfg.Dir, c.cfg.DisableFsync)
	if err != nil {
		return err
	}
	lastSeq := int64(0)
	if snap != nil {
		c.fleet, err = online.RestoreFleet(c.cfg.Servers, c.cfg.IdleTimeout, snap.Fleet)
		if err != nil {
			jr.close()
			return fmt.Errorf("%w: snapshot: %v", ErrCorruptJournal, err)
		}
		c.nextID = snap.NextID
		c.migSaved = snap.MigrationSaved
		c.migHistory = append(c.migHistory, snap.Migrations...)
		lastSeq = snap.LastSeq
	} else {
		c.fleet = online.NewFleet(c.cfg.Servers, c.cfg.IdleTimeout)
	}
	for _, r := range recs {
		if r.Seq <= lastSeq {
			continue // covered by the snapshot (compaction was interrupted)
		}
		if err := c.apply(r); err != nil {
			jr.close()
			return fmt.Errorf("%w: %v", ErrCorruptJournal, err)
		}
		lastSeq = r.Seq
	}
	jr.seq = lastSeq
	c.jr = jr
	if jr.legacy {
		// One-way upgrade: compact the JSON log into a snapshot so the
		// journal restarts empty, hence binary, before anything appends.
		if err := c.snapshotLocked(); err != nil {
			c.jr = nil
			jr.close()
			return fmt.Errorf("cluster: upgrading legacy JSON journal: %w", err)
		}
	}
	return nil
}

// apply replays one journal record against the fleet.
func (c *Cluster) apply(r record) error {
	switch r.Op {
	case opAdmit:
		if r.VM == nil {
			return fmt.Errorf("cluster: journal seq %d: admit without vm", r.Seq)
		}
		// A journaled VM passed normalize before it was written, so a
		// record failing the same validation is corruption, and replaying
		// it (e.g. a negative duration) could corrupt the fleet's ledgers.
		if r.VM.ID < 1 {
			return fmt.Errorf("cluster: journal seq %d: admit with vm id %d", r.Seq, r.VM.ID)
		}
		if err := r.VM.Validate(); err != nil {
			return fmt.Errorf("cluster: journal seq %d: %w", r.Seq, err)
		}
		c.fleet.AdvanceTo(r.T)
		start, err := c.fleet.Commit(r.Server, *r.VM)
		if err != nil {
			return fmt.Errorf("cluster: journal seq %d: %w", r.Seq, err)
		}
		if start != r.Start {
			return fmt.Errorf("cluster: journal seq %d: replayed start %d, recorded %d", r.Seq, start, r.Start)
		}
		if r.VM.ID >= c.nextID {
			c.nextID = r.VM.ID + 1
		}
	case opRelease:
		c.fleet.AdvanceTo(r.T)
		if _, err := c.fleet.Release(r.ID); err != nil {
			return fmt.Errorf("cluster: journal seq %d: %w", r.Seq, err)
		}
	case opMigrate:
		c.fleet.AdvanceTo(r.T)
		from, handoff, err := c.fleet.Migrate(r.ID, r.Server)
		if err != nil {
			return fmt.Errorf("cluster: journal seq %d: %w", r.Seq, err)
		}
		// A journaled migration executed against this exact state once;
		// replaying it must reproduce the same move.
		if from.Server != r.From {
			return fmt.Errorf("cluster: journal seq %d: replayed source index %d, recorded %d", r.Seq, from.Server, r.From)
		}
		if handoff != r.Handoff {
			return fmt.Errorf("cluster: journal seq %d: replayed handoff %d, recorded %d", r.Seq, handoff, r.Handoff)
		}
		p, _ := c.fleet.Resident(r.ID)
		c.recordMigrationLocked(r.Seq, p, r.From, r.T, handoff, r.Policy, r.Saved, r.Cost)
	case opAdopt:
		if r.VM == nil {
			return fmt.Errorf("cluster: journal seq %d: adopt without vm", r.Seq)
		}
		if r.VM.ID < 1 {
			return fmt.Errorf("cluster: journal seq %d: adopt with vm id %d", r.Seq, r.VM.ID)
		}
		if err := r.VM.Validate(); err != nil {
			return fmt.Errorf("cluster: journal seq %d: %w", r.Seq, err)
		}
		c.fleet.AdvanceTo(r.T)
		handoff, err := c.fleet.Adopt(r.Server, *r.VM, r.Start)
		if err != nil {
			return fmt.Errorf("cluster: journal seq %d: %w", r.Seq, err)
		}
		if handoff != r.Handoff {
			return fmt.Errorf("cluster: journal seq %d: replayed handoff %d, recorded %d", r.Seq, handoff, r.Handoff)
		}
		if r.VM.ID >= c.nextID {
			c.nextID = r.VM.ID + 1
		}
	case opTick:
		c.fleet.AdvanceTo(r.T)
	default:
		return fmt.Errorf("cluster: journal seq %d: unknown op %q", r.Seq, r.Op)
	}
	return nil
}

// Admit submits requests for placement and blocks until the batch holding
// them is processed. Per-request outcomes — including structured
// rejections for VMs no server can host — come back in the same order as
// reqs. The error is nil unless the cluster is closed, the context ends,
// or the journal fails: then at most the admission that broke the journal
// took effect in memory (reported alongside the error), the batch's
// remaining requests are rejected unplaced, and the cluster refuses
// further mutations with ErrJournalBroken until a successful Snapshot
// restores durability.
func (c *Cluster) Admit(ctx context.Context, reqs []VMRequest) ([]Admission, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	call := &admitCall{
		reqs:     reqs,
		reqID:    obs.RequestID(ctx),
		trace:    obs.TraceContextFrom(ctx),
		decode:   obs.DecodeSpan(ctx),
		enqueued: time.Now(),
		reply:    make(chan admitReply, 1),
	}
	select {
	case c.admitCh <- call:
	case <-c.stopCh:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case rep := <-call.reply:
		return rep.adms, rep.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// dispatch is the micro-batching loop: the first queued Admit call opens
// a batch, the window (or an opportunistic drain) fills it, and the batch
// is placed as one unit.
func (c *Cluster) dispatch() {
	defer close(c.doneCh)
	for {
		var first *admitCall
		select {
		case first = <-c.admitCh:
		case <-c.stopCh:
			c.rejectPending()
			return
		}
		batch := []*admitCall{first}
		if c.cfg.BatchWindow > 0 {
			timer := time.NewTimer(c.cfg.BatchWindow)
		collect:
			for {
				select {
				case call := <-c.admitCh:
					batch = append(batch, call)
				case <-timer.C:
					break collect
				case <-c.stopCh:
					timer.Stop()
					break collect
				}
			}
		} else {
		drain:
			for {
				select {
				case call := <-c.admitCh:
					batch = append(batch, call)
				default:
					break drain
				}
			}
		}
		c.processBatch(batch)
	}
}

// rejectPending answers Admit calls that were queued when Close won the
// race.
func (c *Cluster) rejectPending() {
	for {
		select {
		case call := <-c.admitCh:
			call.reply <- admitReply{err: ErrClosed}
		default:
			return
		}
	}
}

// batchItem is one normalised, not-yet-placed request within a batch.
type batchItem struct {
	call *admitCall
	pos  int
	vm   model.VM
}

// processBatch normalises, orders and places one batch under the lock,
// then releases the lock and waits for the group commit covering the
// batch's journal records before acknowledging it (see the goroutine at
// the end). Per-stage wall timings (queue wait, scan, commit, journal
// append, the commit flush) are measured on the way and recorded —
// together with the request id each call carried in — as
// flight-recorder decisions.
func (c *Cluster) processBatch(batch []*admitCall) {
	c.mu.Lock()

	batchStart := time.Now()
	batchID := c.met.batches + 1
	if c.jfail != nil {
		jfail := c.jfail
		c.mu.Unlock()
		for _, call := range batch {
			call.reply <- admitReply{err: jfail}
		}
		return
	}
	now := c.fleet.Now()
	if now < 1 {
		now = 1 // the model's horizon starts at minute 1
	}
	var items []batchItem
	total := 0
	for _, call := range batch {
		c.met.queueWaitSeconds.Observe(batchStart.Sub(call.enqueued).Seconds())
		call.adms = make([]Admission, len(call.reqs))
		total += len(call.reqs)
		for k, req := range call.reqs {
			vm, adm, ok := c.normalize(req, now)
			call.adms[k] = adm
			if ok {
				items = append(items, batchItem{call: call, pos: k, vm: vm})
				continue
			}
			// Normalisation rejects never reach the scan or the
			// journal; their story ends here.
			d := obs.Decision{
				RequestID: call.reqID,
				TraceID:   call.trace.TraceID,
				Batch:     batchID,
				Op:        obs.OpReject,
				VM:        adm.ID,
				Clock:     now,
				Reason:    adm.Reason,
				Stages: obs.StageTimings{
					Decode:    call.decode,
					QueueWait: batchStart.Sub(call.enqueued),
				},
			}
			if c.rec != nil {
				c.rec.Record(d)
			}
			c.emitStageSpans(call.trace, &d, call.enqueued, time.Time{}, time.Time{}, time.Time{}, time.Time{})
		}
	}
	// Deterministic batch order: by start minute, then VM ID. Placing the
	// batch is then identical to sequential admission in this order,
	// regardless of how the requests raced into the window.
	sort.SliceStable(items, func(a, b int) bool {
		if items[a].vm.Start != items[b].vm.Start {
			return items[a].vm.Start < items[b].vm.Start
		}
		return items[a].vm.ID < items[b].vm.ID
	})
	stats := c.scan.NewStats()
	// pend holds this batch's not-yet-recorded decisions: the batch
	// fsync duration is only known after the loop, so journaled admits
	// (journaled == true) are stamped with it and recorded at the end.
	type pendDecision struct {
		d         obs.Decision
		journaled bool
		// Span raw material: the trace context the call carried in and
		// each timed stage's start instant (zero when it did not run).
		trace     obs.TraceContext
		enqueued  time.Time
		scanT0    time.Time
		commitT0  time.Time
		journalT0 time.Time
	}
	var pend []pendDecision
	// observe gates the per-item decision bookkeeping: both sinks are
	// passive, so when neither is wired the loop skips the copies.
	observe := c.rec != nil || c.cfg.Spans != nil
	// shadow collects the champion's verdicts for the policy arena: every
	// item that reached the candidate scan, in batch order, with the
	// normalized VM exactly as the fleet saw it. Journal-broken skips are
	// excluded — the champion never judged those, so challengers must not
	// score them either.
	var shadow []arena.AdmitOutcome
	var jerr error
	appended := false
	placed := 0
	for _, it := range items {
		adm := &it.call.adms[it.pos]
		d := obs.Decision{
			RequestID: it.call.reqID,
			TraceID:   it.call.trace.TraceID,
			Batch:     batchID,
			VM:        it.vm.ID,
			Stages: obs.StageTimings{
				Decode:    it.call.decode,
				QueueWait: batchStart.Sub(it.call.enqueued),
			},
		}
		if jerr != nil {
			// The journal broke earlier in this batch: stop mutating so
			// memory never runs ahead of the log by more than the single
			// admission that broke it.
			c.met.rejections++
			adm.Reason = "journal broken; admission not attempted"
			if observe {
				d.Op, d.Clock, d.Reason = obs.OpReject, c.fleet.Now(), adm.Reason
				pend = append(pend, pendDecision{d: d, trace: it.call.trace, enqueued: it.call.enqueued})
			}
			continue
		}
		c.fleet.AdvanceTo(it.vm.Start)
		candBefore, infBefore := stats.CandidatesEvaluated, stats.FeasibilityRejections
		scanT0 := time.Now()
		i, err := c.place(it.vm, stats)
		d.Stages.Scan = time.Since(scanT0)
		d.Candidates = stats.CandidatesEvaluated - candBefore
		d.Infeasible = stats.FeasibilityRejections - infBefore
		d.Clock = c.fleet.Now()
		if err != nil {
			c.met.rejections++
			adm.Reason = err.Error()
			if observe {
				d.Op, d.Reason = obs.OpReject, adm.Reason
				pend = append(pend, pendDecision{d: d, trace: it.call.trace, enqueued: it.call.enqueued, scanT0: scanT0})
			}
			if c.cfg.Arena != nil {
				shadow = append(shadow, arena.AdmitOutcome{RequestID: it.call.reqID, VM: it.vm})
			}
			continue
		}
		commitT0 := time.Now()
		start, err := c.fleet.Commit(i, it.vm)
		d.Stages.Commit = time.Since(commitT0)
		if err != nil {
			c.met.rejections++
			adm.Reason = err.Error()
			if observe {
				d.Op, d.Reason = obs.OpReject, adm.Reason
				pend = append(pend, pendDecision{d: d, trace: it.call.trace, enqueued: it.call.enqueued, scanT0: scanT0, commitT0: commitT0})
			}
			if c.cfg.Arena != nil {
				shadow = append(shadow, arena.AdmitOutcome{RequestID: it.call.reqID, VM: it.vm})
			}
			continue
		}
		var journalT0 time.Time
		if c.jr != nil {
			vm := it.vm
			journalT0 = time.Now()
			jerr = c.jr.append(record{Op: opAdmit, T: c.fleet.Now(), VM: &vm, Server: i, Start: start})
			d.Stages.Journal = time.Since(journalT0)
			if jerr == nil {
				appended = true
			}
		}
		adm.Accepted = true
		adm.Server = c.fleet.View().Server(i).ID
		adm.Start = start
		adm.End = start + it.vm.Duration() - 1
		c.met.admissions++
		c.sinceSnapshot++
		placed++
		if observe {
			d.Op = obs.OpAdmit
			d.Server = adm.Server
			d.Start, d.End = adm.Start, adm.End
			pend = append(pend, pendDecision{
				d: d, journaled: c.jr != nil && jerr == nil,
				trace: it.call.trace, enqueued: it.call.enqueued,
				scanT0: scanT0, commitT0: commitT0, journalT0: journalT0,
			})
		}
		if c.cfg.Arena != nil {
			shadow = append(shadow, arena.AdmitOutcome{
				RequestID: it.call.reqID, VM: it.vm, Server: adm.Server, Accepted: true,
			})
		}
	}
	if c.cfg.Arena != nil && len(shadow) > 0 {
		arenaT0 := time.Now()
		c.cfg.Arena.OfferBatch(batchID, shadow)
		if tc := firstTrace(batch); tc.Valid() {
			c.cfg.Spans.Record(obs.Span{
				TraceID: tc.TraceID, SpanID: obs.NewSpanID(), Parent: tc.SpanID,
				Name: obs.SpanShadowEnqueue, Op: obs.OpShadow, Batch: batchID,
				Start: arenaT0, Duration: time.Since(arenaT0),
			})
		}
	} else {
		c.cfg.Arena.OfferBatch(batchID, shadow)
	}
	if jerr != nil {
		jerr = c.journalFailedLocked(jerr)
	}
	c.met.batches++
	c.met.batchSize.Observe(float64(total))
	c.met.scanSeconds.Observe(stats.ScanWall.Seconds())
	c.met.candidates += stats.CandidatesEvaluated
	c.met.infeasible += stats.FeasibilityRejections
	c.maybeSnapshotLocked()
	c.sampleEnergyLocked()
	finish := func(jerr error, syncT0 time.Time, syncDur time.Duration) {
		for i := range pend {
			p := &pend[i]
			if p.journaled {
				p.d.Stages.Sync = syncDur
			}
			if c.rec != nil {
				c.rec.Record(p.d)
			}
			// Non-journaled items have Stages.Sync == 0, so the zero-value
			// guard in emitStageSpans drops their fsync span.
			c.emitStageSpans(p.trace, &p.d, p.enqueued, p.scanT0, p.commitT0, p.journalT0, syncT0)
		}
		c.log.Debug("batch processed",
			"batch", batchID,
			"requests", total,
			"placed", placed,
			"rejected", total-placed,
			"candidates", stats.CandidatesEvaluated,
			"scan", stats.ScanWall,
			"sync", syncDur,
			"duration", time.Since(batchStart),
		)
		for _, call := range batch {
			call.reply <- admitReply{adms: call.adms, err: jerr}
		}
	}
	if c.jr == nil || jerr != nil || !appended {
		c.mu.Unlock()
		finish(jerr, time.Time{}, 0)
		return
	}
	// Group commit, pipelined: release the lock and wait for the fsync on
	// a separate goroutine, acknowledging the batch only once the flush
	// covering its records completes. The dispatcher is already free to
	// scan the next batch, whose own commit shares the committer's next
	// flush — that is what lifts the one-fsync-per-batch ceiling.
	jr := c.jr
	c.inflight.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.inflight.Done()
		syncT0 := time.Now()
		cerr := jr.commit()
		syncDur := time.Since(syncT0)
		c.mu.Lock()
		c.met.fsyncSeconds.Observe(syncDur.Seconds())
		if cerr != nil {
			cerr = c.journalFailedLocked(cerr)
		}
		c.mu.Unlock()
		finish(cerr, syncT0, syncDur)
	}()
}

// normalize turns a request into a model VM at the current clock, or a
// structured rejection.
func (c *Cluster) normalize(req VMRequest, now int) (model.VM, Admission, bool) {
	adm := Admission{ID: req.ID}
	if req.ID < 0 {
		adm.Reason = fmt.Sprintf("negative vm id %d", req.ID)
		return model.VM{}, adm, false
	}
	if req.DurationMinutes < 1 {
		adm.Reason = fmt.Sprintf("duration %d minutes, want ≥ 1", req.DurationMinutes)
		return model.VM{}, adm, false
	}
	id := req.ID
	if id == 0 {
		id = c.nextID
		c.nextID++
	} else if id >= c.nextID {
		c.nextID = id + 1
	}
	adm.ID = id
	start := req.Start
	if start < now {
		start = now // 0 means "now"; past starts are clamped
	}
	vm := model.VM{
		ID:     id,
		Type:   req.Type,
		Demand: req.Demand,
		Start:  start,
		End:    start + req.DurationMinutes - 1,
	}
	if err := vm.Validate(); err != nil {
		adm.Reason = err.Error()
		return model.VM{}, adm, false
	}
	if _, resident := c.fleet.Resident(id); resident {
		adm.Reason = fmt.Sprintf("vm %d is already resident", id)
		return model.VM{}, adm, false
	}
	return vm, adm, true
}

// place runs the candidate scan for one VM: scored policies go through
// the parallel scan engine (same argmin, same lowest-index tie-break),
// everything else through the policy's own Place. The fleet's
// feasibility index first prunes the servers whose interval
// summaries prove they cannot host v; the pruned servers are exactly
// ones the policy's Score would reject, so the scan's result — and
// therefore every placement — is byte-identical with the index on or
// off. Pruned servers still count into the scan stats as evaluated
// infeasible pairs, keeping the observability surface comparable.
func (c *Cluster) place(v model.VM, stats *core.AllocStats) (int, error) {
	fv := c.fleet.View()
	if c.scored == nil {
		return c.policy.Place(fv, v)
	}
	eval := func(i int) (float64, bool) {
		return c.scored.Score(fv, v, i)
	}
	var (
		i   int
		err error
	)
	if c.fullScan {
		i, err = c.scan.ArgMin(context.Background(), stats, fv.NumServers(), eval)
	} else {
		cands, pruned := fv.Candidates(v, c.candBuf[:0])
		c.candBuf = cands
		stats.CandidatesEvaluated += int64(pruned)
		stats.FeasibilityRejections += int64(pruned)
		c.met.indexPruned += uint64(pruned)
		i, err = c.scan.ArgMinOver(context.Background(), stats, cands, eval)
	}
	if err != nil {
		return 0, err
	}
	if i < 0 {
		return 0, &online.NoCapacityError{VM: v}
	}
	return i, nil
}

// Release removes a resident VM at the current clock, refunding the run
// cost of its unused minutes (see online.Fleet.Release). A VM that is not
// resident yields a *NotResidentError. The context carries the request
// id (obs.RequestID) into the recorded decision.
func (c *Cluster) Release(ctx context.Context, id int) (online.PlacedVM, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return online.PlacedVM{}, ErrClosed
	}
	if c.jfail != nil {
		return online.PlacedVM{}, c.jfail
	}
	tc := obs.TraceContextFrom(ctx)
	d := obs.Decision{
		RequestID: obs.RequestID(ctx),
		TraceID:   tc.TraceID,
		Op:        obs.OpRelease,
		VM:        id,
		Clock:     c.fleet.Now(),
	}
	if _, ok := c.fleet.Resident(id); !ok {
		if c.rec != nil {
			d.Reason = (&NotResidentError{ID: id}).Error()
			c.rec.Record(d)
		}
		return online.PlacedVM{}, &NotResidentError{ID: id}
	}
	p, err := c.fleet.Release(id)
	if err != nil {
		if c.rec != nil {
			d.Reason = err.Error()
			c.rec.Record(d)
		}
		return p, err
	}
	c.met.releases++
	c.sinceSnapshot++
	// The release took effect in memory (journal failures below don't
	// undo it), so the challenger replicas must see it too.
	c.cfg.Arena.OfferRelease(c.fleet.Now(), id)
	var jerr error
	var journalT0, syncT0 time.Time
	if c.jr != nil {
		journalT0 = time.Now()
		jerr = c.jr.append(record{Op: opRelease, T: c.fleet.Now(), ID: id})
		d.Stages.Journal = time.Since(journalT0)
		if jerr == nil {
			syncT0 = time.Now()
			jerr = c.jr.commit()
			d.Stages.Sync = time.Since(syncT0)
			c.met.fsyncSeconds.Observe(d.Stages.Sync.Seconds())
		}
		if jerr != nil {
			jerr = c.journalFailedLocked(jerr)
		}
	}
	d.Server = c.fleet.View().Server(p.Server).ID
	d.Start = p.Start
	d.End = p.End()
	if c.rec != nil {
		c.rec.Record(d)
	}
	c.emitStageSpans(tc, &d, time.Time{}, time.Time{}, time.Time{}, journalT0, syncT0)
	c.maybeSnapshotLocked()
	c.sampleEnergyLocked()
	return p, jerr
}

// Migrate moves one resident VM to the server with the given ID at the
// current clock minute, preserving the VM's (start, end) identity (see
// online.Fleet.Migrate). It is the "manual" migration path behind POST
// /v1/migrations: no pay-for-itself gate applies — the caller asked for
// exactly this move — but the migration cost is still charged into the
// record. Infeasible moves return a *MigrationInfeasibleError and leave
// the fleet untouched; unknown VMs return a *NotResidentError.
func (c *Cluster) Migrate(ctx context.Context, vmID, serverID int) (api.MigrationRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return api.MigrationRecord{}, ErrClosed
	}
	if c.jfail != nil {
		return api.MigrationRecord{}, c.jfail
	}
	tc := obs.TraceContextFrom(ctx)
	opT0 := time.Now()
	d := obs.Decision{
		RequestID: obs.RequestID(ctx),
		TraceID:   tc.TraceID,
		Op:        obs.OpMigrate,
		VM:        vmID,
		Server:    serverID,
		Clock:     c.fleet.Now(),
		Stages:    obs.StageTimings{Decode: obs.DecodeSpan(ctx)},
	}
	fail := func(err error) (api.MigrationRecord, error) {
		if c.rec != nil {
			d.Reason = err.Error()
			c.rec.Record(d)
		}
		return api.MigrationRecord{}, err
	}
	to := -1
	for i := range c.cfg.Servers {
		if c.cfg.Servers[i].ID == serverID {
			to = i
			break
		}
	}
	if to < 0 {
		return fail(&MigrationInfeasibleError{VM: vmID, Server: serverID, Reason: "unknown server id"})
	}
	if _, ok := c.fleet.Resident(vmID); !ok {
		return fail(&NotResidentError{ID: vmID})
	}
	commitT0 := time.Now()
	from, handoff, err := c.fleet.Migrate(vmID, to)
	d.Stages.Commit = time.Since(commitT0)
	if err != nil {
		var me *online.MigrateError
		if errors.As(err, &me) {
			return fail(&MigrationInfeasibleError{VM: vmID, Server: serverID, Reason: me.Reason})
		}
		return fail(err)
	}
	cost := c.cfg.MigrationCostPerGB * from.VM.Demand.Mem
	rec, jerr := c.journalMigrationLocked(&d, from, to, handoff, "manual", 0, cost, tc, opT0, commitT0)
	c.maybeSnapshotLocked()
	c.sampleEnergyLocked()
	return rec, jerr
}

// Adopt places a VM that is already running on another shard onto this
// cluster, preserving the (start, end) identity its original owner
// granted (actualStart is the start minute from the original
// admission; see online.Fleet.Adopt). It is the receiving half of a
// cross-shard drain, behind POST /v1/adoptions: the gate's topology
// rebalancer adopts a remapped VM here, then releases it on the old
// owner.
//
// The target server is chosen deterministically: the first server
// index that can host the remainder, preferring servers that are
// already awake (an adoption should not wake hardware a running server
// could absorb). Re-sending an identical adoption is idempotent — the
// existing placement is re-acknowledged, which is what makes the
// drain's HTTP retries safe. Infeasible adoptions return an
// *AdoptInfeasibleError and leave the fleet untouched; the common
// cause is the VM having departed between drain planning and
// execution.
//
// Adoptions are journaled (op "adopt") and replay with a handoff
// cross-check like migrations. They are not offered to the shadow
// policy arena: challengers score admission placement choices, and an
// adoption's placement was made by another shard's scheduler.
func (c *Cluster) Adopt(ctx context.Context, vm model.VM, actualStart int) (online.PlacedVM, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return online.PlacedVM{}, 0, ErrClosed
	}
	if c.jfail != nil {
		return online.PlacedVM{}, 0, c.jfail
	}
	tc := obs.TraceContextFrom(ctx)
	opT0 := time.Now()
	d := obs.Decision{
		RequestID: obs.RequestID(ctx),
		TraceID:   tc.TraceID,
		Op:        obs.OpAdopt,
		VM:        vm.ID,
		Clock:     c.fleet.Now(),
		Stages:    obs.StageTimings{Decode: obs.DecodeSpan(ctx)},
	}
	fail := func(err error) (online.PlacedVM, int, error) {
		if c.rec != nil {
			d.Reason = err.Error()
			c.rec.Record(d)
		}
		return online.PlacedVM{}, 0, err
	}
	if vm.ID < 1 {
		return fail(&AdoptInfeasibleError{VM: vm.ID, Reason: "vm id must be ≥ 1"})
	}
	if p, ok := c.fleet.Resident(vm.ID); ok {
		if p.VM == vm && p.Start == actualStart {
			// The drain retried an adoption that already took effect:
			// re-acknowledge the existing placement.
			d.Server = c.fleet.View().Server(p.Server).ID
			d.Start, d.End = p.Start, p.End()
			if c.rec != nil {
				c.rec.Record(d)
			}
			return p, max(p.Start, c.fleet.Now()+1), nil
		}
		return fail(&AdoptInfeasibleError{VM: vm.ID, Reason: "a different vm with this id is already resident"})
	}
	// Deterministic target choice: first awake server that fits, then
	// first sleeping one.
	commitT0 := time.Now()
	to, handoff := -1, 0
	var lastErr error
	for pass := 0; pass < 2 && to < 0; pass++ {
		for i := 0; i < c.fleet.View().NumServers(); i++ {
			sleeping := c.fleet.View().StateOf(i) == online.PowerSaving
			if (pass == 0) == sleeping {
				continue
			}
			h, err := c.fleet.Adopt(i, vm, actualStart)
			if err == nil {
				to, handoff = i, h
				break
			}
			lastErr = err
			var ae *online.AdoptError
			if !errors.As(err, &ae) {
				return fail(err)
			}
		}
	}
	d.Stages.Commit = time.Since(commitT0)
	if to < 0 {
		reason := "no server can host the remaining interval"
		var ae *online.AdoptError
		if errors.As(lastErr, &ae) && ae.Reason == "no remaining minutes to host" {
			reason = ae.Reason
		}
		return fail(&AdoptInfeasibleError{VM: vm.ID, Reason: reason})
	}
	p, _ := c.fleet.Resident(vm.ID)
	c.met.adoptions++
	c.sinceSnapshot++
	if vm.ID >= c.nextID {
		c.nextID = vm.ID + 1
	}
	var jerr error
	var journalT0, syncT0 time.Time
	if c.jr != nil {
		journalT0 = time.Now()
		jerr = c.jr.append(record{
			Op:      opAdopt,
			T:       c.fleet.Now(),
			VM:      &vm,
			Server:  to,
			Start:   actualStart,
			Handoff: handoff,
		})
		d.Stages.Journal = time.Since(journalT0)
		if jerr == nil {
			syncT0 = time.Now()
			jerr = c.jr.commit()
			d.Stages.Sync = time.Since(syncT0)
			c.met.fsyncSeconds.Observe(d.Stages.Sync.Seconds())
		}
		if jerr != nil {
			jerr = c.journalFailedLocked(jerr)
		}
	}
	d.Server = c.fleet.View().Server(to).ID
	d.Start, d.End = p.Start, p.End()
	if c.rec != nil {
		c.rec.Record(d)
	}
	if c.cfg.Spans != nil && tc.Valid() {
		ad := obs.TraceContext{TraceID: tc.TraceID, SpanID: obs.NewSpanID()}
		c.emitStageSpans(ad, &d, time.Time{}, time.Time{}, commitT0, journalT0, syncT0)
		c.cfg.Spans.Record(obs.Span{
			TraceID: tc.TraceID, SpanID: ad.SpanID, Parent: tc.SpanID,
			Name: obs.SpanAdopt, Op: obs.OpAdopt, VM: vm.ID,
			Start: opT0, Duration: time.Since(opT0),
		})
	}
	c.maybeSnapshotLocked()
	c.sampleEnergyLocked()
	return p, handoff, jerr
}

// journalMigrationLocked finishes one executed fleet migration: it
// journals the migrate record (append + fsync), adds it to the retained
// history, bumps the metrics and records the flight decision d (Server,
// From, Start/End and stage timings are filled in here). The returned
// error is the sticky journal failure, if the append or sync broke it —
// the migration itself already took effect in memory, exactly like an
// admission that breaks the journal.
//
// When tc is valid the move is also emitted as trace spans: a SpanMigrate
// umbrella parented on tc (started at opT0, the caller's view of when the
// move began) with the commit/journal/fsync stage spans nested under it
// (commitT0 is when the caller started the fleet commit).
func (c *Cluster) journalMigrationLocked(d *obs.Decision, from online.PlacedVM, to, handoff int, policy string, saved, cost float64, tc obs.TraceContext, opT0, commitT0 time.Time) (api.MigrationRecord, error) {
	now := c.fleet.Now()
	seq := c.volMigSeq + 1
	var jerr error
	var journalT0, syncT0 time.Time
	if c.jr != nil {
		seq = c.jr.seq + 1
		journalT0 = time.Now()
		jerr = c.jr.append(record{
			Op:      opMigrate,
			T:       now,
			ID:      from.VM.ID,
			Server:  to,
			From:    from.Server,
			Handoff: handoff,
			Policy:  policy,
			Saved:   saved,
			Cost:    cost,
		})
		d.Stages.Journal = time.Since(journalT0)
		if jerr == nil {
			syncT0 = time.Now()
			jerr = c.jr.commit()
			d.Stages.Sync = time.Since(syncT0)
			c.met.fsyncSeconds.Observe(d.Stages.Sync.Seconds())
		}
		if jerr != nil {
			jerr = c.journalFailedLocked(jerr)
		}
	} else {
		c.volMigSeq = seq
	}
	moved := from
	moved.Server = to
	rec := c.recordMigrationLocked(seq, moved, from.Server, now, handoff, policy, saved, cost)
	c.met.migrations++
	c.met.migrationSaved += saved
	c.sinceSnapshot++
	d.Server = rec.To
	d.From = rec.From
	d.Start, d.End = rec.Start, rec.End
	d.SavedWattMinutes = saved
	if c.rec != nil {
		c.rec.Record(*d)
	}
	if c.cfg.Spans != nil && tc.Valid() {
		mig := obs.TraceContext{TraceID: tc.TraceID, SpanID: obs.NewSpanID()}
		c.emitStageSpans(mig, d, opT0, time.Time{}, commitT0, journalT0, syncT0)
		c.cfg.Spans.Record(obs.Span{
			TraceID: tc.TraceID, SpanID: mig.SpanID, Parent: tc.SpanID,
			Name: obs.SpanMigrate, Op: obs.OpMigrate, VM: d.VM,
			Detail: policy, Start: opT0, Duration: time.Since(opT0),
		})
	}
	return rec, jerr
}

// recordMigrationLocked appends one migration to the retained history
// (bounded by migrationHistoryLimit) and accumulates the saved estimate.
// It is shared by the live path and journal replay, so a restored
// cluster's history and MigrationSaved match the one that wrote the log.
// p is the post-move placement (Server is the target index).
func (c *Cluster) recordMigrationLocked(seq int64, p online.PlacedVM, fromIdx, t, handoff int, policy string, saved, cost float64) api.MigrationRecord {
	rec := api.MigrationRecord{
		Seq:              seq,
		VM:               p.VM.ID,
		From:             c.cfg.Servers[fromIdx].ID,
		To:               c.cfg.Servers[p.Server].ID,
		Time:             t,
		Handoff:          handoff,
		Start:            p.Start,
		End:              p.End(),
		Policy:           policy,
		SavedWattMinutes: saved,
		CostWattMinutes:  cost,
	}
	c.migHistory = append(c.migHistory, rec)
	if len(c.migHistory) > migrationHistoryLimit {
		c.migHistory = append(c.migHistory[:0], c.migHistory[len(c.migHistory)-migrationHistoryLimit:]...)
	}
	c.migSaved += saved
	return rec
}

// Adopted returns the number of VMs adopted from other shards over the
// cluster's lifetime (journaled, so it replays).
func (c *Cluster) Adopted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fleet.Adopted()
}

// Migrations returns the cluster-lifetime migration count and a copy of
// the retained history (bounded, oldest first).
func (c *Cluster) Migrations() (int, []api.MigrationRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]api.MigrationRecord, len(c.migHistory))
	copy(out, c.migHistory)
	return c.fleet.Migrated(), out
}

// AdvanceTo moves the fleet clock forward to minute t, processing
// departures, wake-ups and idle checks on the way. Earlier times are a
// no-op (the clock is monotonic).
func (c *Cluster) AdvanceTo(t int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.jfail != nil {
		return c.jfail
	}
	if t <= c.fleet.Now() {
		return nil
	}
	c.fleet.AdvanceTo(t)
	c.cfg.Arena.OfferTick(t)
	c.sampleEnergyLocked()
	if c.jr == nil {
		return nil
	}
	c.sinceSnapshot++
	err := c.jr.append(record{Op: opTick, T: t})
	if err == nil {
		err = c.jr.commit()
	}
	if err != nil {
		err = c.journalFailedLocked(err)
	}
	c.maybeSnapshotLocked()
	return err
}

// Now returns the current fleet clock, in minutes.
func (c *Cluster) Now() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fleet.Now()
}

// PolicyArena returns the configured shadow-policy arena, or nil when
// none is wired in.
func (c *Cluster) PolicyArena() *arena.Arena {
	return c.cfg.Arena
}

// PolicyName returns the champion placement policy's name.
func (c *Cluster) PolicyName() string {
	return c.policy.Name()
}

// ServerState is one server's externally visible state.
type ServerState struct {
	ID    int    `json:"id"`
	Type  string `json:"type,omitempty"`
	State string `json:"state"`
	VMs   int    `json:"vms"`
}

// State is a consistent snapshot of the cluster, exactly the durable
// state: a cluster restored from its journal serves a byte-identical
// State to the one that wrote it. Rejection counts are deliberately
// absent (rejections are not journaled); they live in the metrics.
type State struct {
	Now         int    `json:"now"`
	Policy      string `json:"policy"`
	IdleTimeout int    `json:"idleTimeoutMinutes"`
	Admitted    int    `json:"admitted"`
	Released    int    `json:"released"`
	// Migrations counts live migrations over the cluster lifetime and
	// MigrationSaved sums the planner's net Eq. 17 saving estimates —
	// both journaled, so they replay byte-identically.
	Migrations      int              `json:"migrations"`
	MigrationSaved  float64          `json:"migrationSavedWattMinutes"`
	Transitions     int              `json:"transitions"`
	ServersUsed     int              `json:"serversUsed"`
	Energy          energy.Breakdown `json:"energy"`
	TotalEnergy     float64          `json:"totalEnergyWattMinutes"`
	TotalStartDelay int              `json:"totalStartDelayMinutes"`
	MaxStartDelay   int              `json:"maxStartDelayMinutes"`
	Servers         []ServerState    `json:"servers"`
	// VMs lists the resident VMs sorted by ID; PlacedVM.Server is the
	// server *index* in the configured list.
	VMs []online.PlacedVM `json:"vms"`
}

// State returns a consistent snapshot of the cluster.
func (c *Cluster) State() *State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stateLocked()
}

func (c *Cluster) stateLocked() *State {
	fv := c.fleet.View()
	st := &State{
		Now:             c.fleet.Now(),
		Policy:          c.policy.Name(),
		IdleTimeout:     c.cfg.IdleTimeout,
		Admitted:        c.fleet.Admitted(),
		Released:        c.fleet.Released(),
		Migrations:      c.fleet.Migrated(),
		MigrationSaved:  c.migSaved,
		Transitions:     c.fleet.Transitions(),
		ServersUsed:     c.fleet.ServersUsed(),
		Energy:          c.fleet.EnergyAt(c.fleet.Now()),
		TotalStartDelay: c.fleet.StartDelayTotal(),
		MaxStartDelay:   c.fleet.MaxStartDelay(),
		Servers:         make([]ServerState, fv.NumServers()),
		VMs:             c.fleet.Residents(),
	}
	st.TotalEnergy = st.Energy.Total()
	for i := range st.Servers {
		s := fv.Server(i)
		st.Servers[i] = ServerState{
			ID:    s.ID,
			Type:  s.Type,
			State: fv.StateOf(i).String(),
			VMs:   fv.Running(i),
		}
	}
	return st
}

// StateJSON returns the State as deterministic, indented JSON.
func (c *Cluster) StateJSON() ([]byte, error) {
	return marshalStateJSON(c.State())
}

func marshalStateJSON(st *State) ([]byte, error) {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// StateDigest returns the SHA-256 of StateJSON as a hex string — a
// compact, deterministic fingerprint of the durable state. Two clusters
// serve the same digest exactly when their States are byte-identical,
// which is what the load harness and the journal-replay tests compare
// across crashes and restarts.
func (c *Cluster) StateDigest() (string, error) {
	b, err := c.StateJSON()
	if err != nil {
		return "", err
	}
	return DigestBytes(b), nil
}

// DigestBytes is the fingerprint function behind StateDigest: hex SHA-256
// of the given bytes. Exported so HTTP layers and load harnesses can
// digest an already-marshalled state body identically.
func DigestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// journalFailedLocked records a journal write failure. The failure is
// sticky: every subsequent mutating call returns the same ErrJournalBroken
// wrap, so the in-memory state never diverges from the log by more than
// the mutation that broke it — replaying the journal after a restart then
// recovers a consistent (journaled-prefix) state instead of one with a
// hole in its history. A successful snapshot clears the failure.
func (c *Cluster) journalFailedLocked(err error) error {
	c.met.journalErrors++
	c.jfail = fmt.Errorf("%w (mutations refused until a snapshot succeeds): %v", ErrJournalBroken, err)
	c.log.Error("journal broken; mutations refused until a snapshot succeeds", "err", err)
	return c.jfail
}

// Snapshot forces a snapshot + journal compaction now. It is a no-op for
// a volatile cluster. A successful snapshot also heals a broken journal
// (see ErrJournalBroken): the snapshot captures the complete in-memory
// state, so nothing depends on the records the journal failed to take.
func (c *Cluster) Snapshot() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return c.snapshotLocked()
}

func (c *Cluster) snapshotLocked() error {
	if c.jr == nil {
		return nil
	}
	err := c.jr.snapshot(&snapshotFile{
		NextID:         c.nextID,
		Fleet:          c.fleet.Snapshot(),
		MigrationSaved: c.migSaved,
		Migrations:     c.migHistory,
	})
	if err != nil {
		c.met.snapshotErrors++
		c.log.Error("snapshot failed", "err", err)
		return err
	}
	c.met.snapshots++
	c.sinceSnapshot = 0
	if c.jfail != nil {
		c.log.Info("journal healed by snapshot")
	}
	c.jfail = nil // the snapshot covers all in-memory state; the hole is gone
	return nil
}

// maybeSnapshotLocked runs the periodic snapshot policy. A failed
// snapshot is counted and retried at the next trigger; the cluster keeps
// serving from memory + journal.
func (c *Cluster) maybeSnapshotLocked() {
	if c.jr == nil || c.cfg.SnapshotEvery <= 0 || c.sinceSnapshot < c.cfg.SnapshotEvery {
		return
	}
	c.snapshotLocked() //nolint:errcheck // counted in snapshotErrors
}

// Close stops the dispatcher, takes a final snapshot, and closes the
// journal. It is idempotent; concurrent Admit calls receive ErrClosed.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		close(c.stopCh)
		<-c.doneCh
		// The dispatcher has exited, so no new batches start; wait for
		// in-flight group commits so every batch is acknowledged and the
		// journal is quiescent before it closes.
		c.inflight.Wait()
		c.mu.Lock()
		defer c.mu.Unlock()
		c.closed = true
		var errs []error
		if c.jr != nil {
			if err := c.snapshotLocked(); err != nil {
				errs = append(errs, err)
			}
			if err := c.jr.close(); err != nil {
				errs = append(errs, err)
			}
		}
		c.scan.Close()
		c.closeErr = errors.Join(errs...)
	})
	return c.closeErr
}
