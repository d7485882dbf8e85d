// Package cluster turns the event-driven fleet simulator into a
// long-running allocation service. A Cluster owns an online.Fleet and a
// placement policy behind a concurrency-safe API: callers admit VM
// requests (singly or in batches), release them early, advance the fleet
// clock, and read a consistent state snapshot at any moment.
//
// Every mutation, Admit included, runs on the caller's goroutine under
// one lock, so the journal order is the serial order. An Admit call
// orders its own requests by (start, ID) and places them one VM at a time
// by the policy's own sequential pass over the fleet's row table, each
// against the fleet its predecessors left.
//
// Durability is an append-only journal of CRC-framed binary records plus
// periodic snapshots (see journal.go). Appended records are made
// durable by group commit on the callers' own goroutines: an Admit call
// waits for its fsync off the lock, so the next caller's candidate scan
// overlaps it, and the first caller to find no flush running issues the
// one fsync that covers everyone waiting; an admission is acknowledged
// only after a flush that began after its append completes. The package
// starts no goroutine. Reopening a journal directory replays the log on
// top of the snapshot and reconstructs the exact pre-crash state,
// tolerating a torn final record. A journal write or flush failure is
// sticky (ErrJournalBroken): the cluster refuses further mutations rather
// than journal past the hole, until a successful Snapshot re-establishes
// durability. Overload degrades gracefully: a VM no server can host
// yields a structured rejection in the Admission result, never an error
// path that kills the service.
package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
	"vmalloc/internal/online"
)

// DefaultSnapshotEvery is the number of journaled mutations between
// automatic snapshots when Config.SnapshotEvery is 0.
const DefaultSnapshotEvery = 256

// donorUtilization is the donor CPU-utilisation threshold: active servers
// below half capacity are drain candidates. The pay-for-itself rule still
// decides whether any candidate actually drains.
const donorUtilization = 0.5

// migrationHistoryLimit bounds the retained migration history (the GET
// /v1/migrations backing store); the oldest records are evicted first.
// The lifetime count in State.Migrations is not affected by eviction.
const migrationHistoryLimit = 1024

// ErrClosed is returned by mutating calls after Close.
var ErrClosed = errors.New("cluster: closed")

// ErrCorruptJournal is wrapped by Open when the journal directory holds
// durable state that cannot be restored: a snapshot that does not parse, a
// journal record that is malformed before the tail (a torn *final* record
// is an interrupted write and is dropped instead), a replayed record whose
// seq does not follow the one before it, or a record sequence that does
// not replay cleanly against the fleet. The first such problem in log
// order is reported, and the directory is left untouched so the operator
// can inspect or repair it.
var ErrCorruptJournal = errors.New("cluster: corrupt journal")

// ErrJournalBroken is wrapped by every mutating call after a journal write
// fails. The failure is sticky: the cluster refuses further mutations, so
// the log never grows past the hole and a restart always recovers the
// journaled prefix exactly. An append failure stops its Admit call on the
// spot; a group-commit fsync failure turns sticky when the flush outcome
// is observed, so a call that took the lock behind the failing flush may
// still have appended — its records extend the journaled prefix in order
// (replay stays consistent), and its clients see this error: no later
// flush acknowledges a record behind a failed one. A subsequent
// successful snapshot (which captures the full in-memory state and
// compacts the log) heals the cluster and re-enables mutation. Only
// Snapshot and Close take one once the journal is broken: the periodic
// snapshot runs inside a mutation that got past this error, so at most in
// the call that broke the journal. No production path calls Snapshot
// (ROADMAP item 28), so a daemon answers with this error until it
// restarts.
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

// ConfigValueError reports a negative, NaN or infinite Config rate, which
// would price a move below zero or as NaN.
type ConfigValueError struct {
	Field string
	Value float64
}

func (e *ConfigValueError) Error() string {
	return fmt.Sprintf("cluster: %s %g is not a finite number ≥ 0", e.Field, e.Value)
}

// Config configures a Cluster.
type Config struct {
	// Servers is the fleet; required, validated on Open. A journal
	// directory must always be reopened with the server list it was
	// created with.
	Servers []model.Server
	// Policy places VMs; nil means online.MinCostPolicy.
	Policy online.Policy
	// IdleTimeout follows online.Engine.IdleTimeout: minutes an empty
	// active server waits before sleeping; negative never, 0 immediately.
	IdleTimeout int
	// BatchWindow is inert: Admit places on the caller's goroutine and
	// never waits on a timer. The field survives only because
	// bench/probe_cluster.go names it in a struct literal; the next change
	// to the benchmark drops that line, then this field goes.
	BatchWindow time.Duration
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
	// more conservative. 0 treats migrations as free; Open refuses < 0, NaN and +Inf.
	MigrationCostPerGB float64
	// Recorder, when non-nil, receives one obs.Decision per admission,
	// rejection, release and migration — the flight recorder behind the
	// service's debug surface. Recording is passive: it never changes a
	// placement.
	Recorder *obs.FlightRecorder
	// Logger receives the cluster's structured service log (journal
	// failures, snapshots, batch traces at debug level). Nil discards.
	Logger *slog.Logger
	// Spans, when non-nil, receives one typed trace span per pipeline
	// stage (decode, queue wait, scan, commit, journal append, fsync,
	// migrate, consolidate pass) for requests that carried a trace
	// context in. Like the flight recorder, recording is passive and
	// never changes a placement or the state digest.
	Spans *obs.SpanStore
	// Energy, when non-nil, receives one fleet energy sample per batch,
	// release, migration, consolidation pass and clock advance — the
	// energy-over-time curve behind GET /v1/debug/energy and the
	// vmalloc_energy_* gauges. A minute's samples are built once, when
	// the clock leaves it or the recorder is read (Open makes the cluster
	// its source). Sampling is read-only on the fleet.
	Energy *obs.EnergyRecorder
}

// Cluster is the long-running allocation service. All methods are safe
// for concurrent use.
type Cluster struct {
	cfg    Config
	policy online.Policy
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

	// The energy sample's per-class breakdown (set by indexClasses when a
	// recorder is wired): server index → class slot, the slots' names, and
	// the accumulator every sample reuses under mu. energyDue counts the
	// mutations since the last sample was recorded, energyWall stamps the
	// newest of them.
	classOf    []int
	classNames []string
	classUse   []obs.ClassUsage
	energyDue  int64
	energyWall time.Time

	// inflight counts Admit calls waiting for their group commit off the
	// lock; Close waits for them before closing the journal.
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
	if v := cfg.MigrationCostPerGB; !(v >= 0) || math.IsInf(v, 1) {
		return nil, &ConfigValueError{"MigrationCostPerGB", v}
	}
	if cfg.Policy == nil {
		cfg.Policy = &online.MinCostPolicy{}
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	c := &Cluster{
		cfg:    cfg,
		policy: cfg.Policy,
		rec:    cfg.Recorder,
		log:    cfg.Logger,
		nextID: 1,
		met:    newMetrics(),
	}
	if c.log == nil {
		c.log = obs.NopLogger()
	}
	if cfg.Energy != nil {
		c.indexClasses()
		cfg.Energy.SetSource(c.flushEnergy)
	}
	if cfg.Dir == "" {
		c.fleet = online.NewFleet(cfg.Servers, cfg.IdleTimeout)
	} else if err := c.restore(); err != nil {
		return nil, err
	}
	return c, nil
}

// restore loads the snapshot from cfg.Dir, builds the fleet from it, and
// replays the journal onto it record by record as the log streams in.
// Durable state that does not restore cleanly is reported as
// ErrCorruptJournal, at its first problem in log order.
func (c *Cluster) restore() error {
	snap, err := readSnapshot(c.cfg.Dir)
	if err != nil {
		return err
	}
	lastSeq := int64(0)
	if snap != nil {
		c.fleet, err = online.RestoreFleet(c.cfg.Servers, c.cfg.IdleTimeout, snap.Fleet)
		if err != nil {
			return fmt.Errorf("%w: snapshot: %v", ErrCorruptJournal, err)
		}
		c.nextID = snap.NextID
		c.migSaved = snap.MigrationSaved
		c.migHistory = append(c.migHistory, snap.Migrations...)
		lastSeq = snap.LastSeq
	} else {
		c.fleet = online.NewFleet(c.cfg.Servers, c.cfg.IdleTimeout)
	}
	jr, err := openJournal(c.cfg.Dir, c.cfg.DisableFsync, inSequence(&lastSeq, c.apply))
	if err != nil {
		return err
	}
	jr.seq = lastSeq
	c.jr = jr
	return nil
}

// apply replays one journal record against the fleet.
func (c *Cluster) apply(r *record) error {
	switch r.Op {
	case opAdmit, opAdopt:
		if err := checkJournaledVM(r); err != nil {
			return err
		}
		c.fleet.AdvanceTo(r.T)
		if r.Op == opAdmit {
			start, err := c.fleet.Commit(r.Server, r.VM)
			if err != nil {
				return fmt.Errorf("cluster: journal seq %d: %w", r.Seq, err)
			}
			if start != r.Start {
				return fmt.Errorf("cluster: journal seq %d: replayed start %d, recorded %d", r.Seq, start, r.Start)
			}
		} else {
			handoff, err := c.fleet.Adopt(r.Server, r.VM, r.Start)
			if err != nil {
				return fmt.Errorf("cluster: journal seq %d: %w", r.Seq, err)
			}
			if handoff != r.Handoff {
				return fmt.Errorf("cluster: journal seq %d: replayed handoff %d, recorded %d", r.Seq, handoff, r.Handoff)
			}
		}
		c.nextID = max(c.nextID, r.VM.ID+1)
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
	case opTick:
		c.fleet.AdvanceTo(r.T)
	default:
		return fmt.Errorf("cluster: journal seq %d: unknown op %d", r.Seq, r.Op)
	}
	return nil
}

// Snapshot forces a snapshot + journal compaction now. It is a no-op for
// a volatile cluster. A successful snapshot also heals a broken journal
// (see ErrJournalBroken): the snapshot captures the complete in-memory
// state, so nothing depends on the records the journal failed to take.
// Only tests call it so far; ROADMAP item 28 is the production heal.
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

// Close refuses further mutations, takes a final snapshot, and closes the
// journal. It is idempotent; later mutating calls receive ErrClosed.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		// No Admit call starts a commit now; wait for those in flight so
		// every admission is acknowledged and the journal is quiescent
		// before it closes.
		c.inflight.Wait()
		c.mu.Lock()
		defer c.mu.Unlock()
		var errs []error
		if c.jr != nil {
			if err := c.snapshotLocked(); err != nil {
				errs = append(errs, err)
			}
			if err := c.jr.close(); err != nil {
				errs = append(errs, err)
			}
		}
		c.closeErr = errors.Join(errs...)
	})
	return c.closeErr
}
