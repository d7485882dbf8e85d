package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
	"vmalloc/internal/online"
)

// Release removes a resident VM at the current clock, refunding the run
// cost of its unused minutes (see online.Fleet.Release). A VM that is not
// resident yields a *NotResidentError. The context carries the request
// id (obs.RequestID) into the recorded decision.
func (c *Cluster) Release(ctx context.Context, id int) (online.PlacedVM, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.guardLocked(); err != nil {
		return online.PlacedVM{}, err
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
		return online.PlacedVM{}, c.refuseLocked(&d, &NotResidentError{ID: id})
	}
	p, err := c.fleet.Release(id)
	if err != nil {
		return p, c.refuseLocked(&d, err)
	}
	d.Server = c.fleet.View().Server(p.Server).ID
	d.Start, d.End = p.Start, p.End()
	jerr := c.commitLocked(record{Op: opRelease, T: c.fleet.Now(), ID: id}, &d, tc, stageClock{})
	c.finishLocked()
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
	if err := c.guardLocked(); err != nil {
		return api.MigrationRecord{}, err
	}
	tc := obs.TraceContextFrom(ctx)
	clk := stageClock{entered: time.Now()}
	d := obs.Decision{
		RequestID: obs.RequestID(ctx),
		TraceID:   tc.TraceID,
		Op:        obs.OpMigrate,
		VM:        vmID,
		Server:    serverID,
		Clock:     c.fleet.Now(),
		Stages:    obs.StageTimings{Decode: obs.DecodeSpan(ctx)},
	}
	to := -1
	for i := range c.cfg.Servers {
		if c.cfg.Servers[i].ID == serverID {
			to = i
			break
		}
	}
	if to < 0 {
		return api.MigrationRecord{}, c.refuseLocked(&d, &MigrationInfeasibleError{VM: vmID, Server: serverID, Reason: "unknown server id"})
	}
	if _, ok := c.fleet.Resident(vmID); !ok {
		return api.MigrationRecord{}, c.refuseLocked(&d, &NotResidentError{ID: vmID})
	}
	clk.commit = time.Now()
	from, handoff, err := c.fleet.Migrate(vmID, to)
	d.Stages.Commit = time.Since(clk.commit)
	if err != nil {
		var me *online.MigrateError
		if errors.As(err, &me) {
			err = &MigrationInfeasibleError{VM: vmID, Server: serverID, Reason: me.Reason}
		}
		return api.MigrationRecord{}, c.refuseLocked(&d, err)
	}
	cost := c.cfg.MigrationCostPerGB * from.VM.Demand.Mem
	rec, jerr := c.journalMigrationLocked(&d, from, to, handoff, "manual", 0, cost, tc, clk)
	c.finishLocked()
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
// cross-check like migrations. Replay offers them to no policy: an
// adoption's placement was made by another shard's scheduler.
func (c *Cluster) Adopt(ctx context.Context, vm model.VM, actualStart int) (online.PlacedVM, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.guardLocked(); err != nil {
		return online.PlacedVM{}, 0, err
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
	if vm.ID < 1 || vm.ID == math.MaxInt {
		return online.PlacedVM{}, 0, c.refuseLocked(&d, &AdoptInfeasibleError{VM: vm.ID, Reason: "vm id must be ≥ 1 and below math.MaxInt"})
	}
	if p, ok := c.fleet.Resident(vm.ID); ok {
		if p.VM == vm && p.Start == actualStart {
			// The drain retried an adoption that already took effect:
			// re-acknowledge the existing placement.
			d.Server = c.fleet.View().Server(p.Server).ID
			d.Start, d.End = p.Start, p.End()
			c.cfg.Recorder.Record(d)
			return p, max(p.Start, c.fleet.Now()+1), nil
		}
		return online.PlacedVM{}, 0, c.refuseLocked(&d, &AdoptInfeasibleError{VM: vm.ID, Reason: "a different vm with this id is already resident"})
	}
	// Deterministic target choice: first awake server that fits, then
	// first sleeping one.
	clk := stageClock{commit: time.Now()}
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
				return online.PlacedVM{}, 0, c.refuseLocked(&d, err)
			}
		}
	}
	d.Stages.Commit = time.Since(clk.commit)
	if to < 0 {
		reason := "no server can host the remaining interval"
		var ae *online.AdoptError
		if errors.As(lastErr, &ae) && ae.Reason == "no remaining minutes to host" {
			reason = ae.Reason
		}
		return online.PlacedVM{}, 0, c.refuseLocked(&d, &AdoptInfeasibleError{VM: vm.ID, Reason: reason})
	}
	p, _ := c.fleet.Resident(vm.ID)
	c.nextID = max(c.nextID, vm.ID+1)
	d.Server = c.fleet.View().Server(to).ID
	d.Start, d.End = p.Start, p.End()
	ad, done := c.openSpan(tc, obs.Span{Name: obs.SpanAdopt, Op: obs.OpAdopt, VM: vm.ID, Start: opT0})
	jerr := c.commitLocked(record{
		Op:      opAdopt,
		T:       c.fleet.Now(),
		VM:      vm,
		Server:  to,
		Start:   actualStart,
		Handoff: handoff,
	}, &d, ad, clk)
	done()
	c.finishLocked()
	return p, handoff, jerr
}

// journalMigrationLocked finishes one executed fleet migration: it adds
// the move to the retained history, bumps the metrics, fills in the
// flight decision d (Server, From, Start/End) and hands the migrate
// record to the shared tail. The returned error is the sticky journal
// failure, if the append or sync broke it — the migration itself already
// took effect in memory, exactly like an admission that breaks the
// journal.
//
// When tc is valid the move is also emitted as trace spans: a SpanMigrate
// umbrella parented on tc, started at clk.entered (the caller's view of
// when the move began), with the commit/journal/fsync stage spans nested
// under it.
func (c *Cluster) journalMigrationLocked(d *obs.Decision, from online.PlacedVM, to, handoff int, policy string, saved, cost float64, tc obs.TraceContext, clk stageClock) (api.MigrationRecord, error) {
	now := c.fleet.Now()
	seq := c.volMigSeq + 1
	if c.jr != nil {
		seq = c.jr.seq + 1
	} else {
		c.volMigSeq = seq
	}
	moved := from
	moved.Server = to
	rec := c.recordMigrationLocked(seq, moved, from.Server, now, handoff, policy, saved, cost)
	d.Server = rec.To
	d.From = rec.From
	d.Start, d.End = rec.Start, rec.End
	d.SavedWattMinutes = saved
	mig, done := c.openSpan(tc, obs.Span{Name: obs.SpanMigrate, Op: obs.OpMigrate, VM: d.VM, Detail: policy, Start: clk.entered})
	jerr := c.commitLocked(record{
		Op:      opMigrate,
		T:       now,
		ID:      from.VM.ID,
		Server:  to,
		From:    from.Server,
		Handoff: handoff,
		Policy:  policy,
		Saved:   saved,
		Cost:    cost,
	}, d, mig, clk)
	done()
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

// AdvanceTo moves the fleet clock forward to minute t, processing
// departures, wake-ups and idle checks on the way. Earlier times are a
// no-op (the clock is monotonic).
func (c *Cluster) AdvanceTo(t int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.guardLocked(); err != nil {
		return err
	}
	if t <= c.fleet.Now() {
		return nil
	}
	c.sampleEnergyLocked()
	c.fleet.AdvanceTo(t)
	// A tick has no flight-recorder decision and arrives without a trace.
	err := c.commitLocked(record{Op: opTick, T: t}, nil, obs.TraceContext{}, stageClock{})
	c.finishLocked()
	return err
}

// guardLocked is the refusal every mutation opens with: ErrClosed after
// Close, the sticky ErrJournalBroken wrap while the journal has a hole.
func (c *Cluster) guardLocked() error {
	if c.closed {
		return ErrClosed
	}
	return c.jfail
}

// refuseLocked records d as a mutation that did not happen, with err as
// its reason, and hands err back for the caller to return.
func (c *Cluster) refuseLocked(d *obs.Decision, err error) error {
	if c.cfg.Recorder != nil { // without a recorder, skip err.Error()
		d.Reason = err.Error()
		c.cfg.Recorder.Record(*d)
	}
	return err
}

// commitLocked is the one durable tail under every synchronous mutation
// (release, migrate, adopt, tick), run after the mutation took effect in
// memory: count it towards the next snapshot, append rec to the journal,
// wait for the fsync covering it (observed in fsync_seconds), turn a
// failure of either into the sticky ErrJournalBroken, then record the
// decision d with its journal/fsync timings and emit its stage spans
// under tc. clk carries the stage instants the caller already took; d is
// nil for mutations without a flight-recorder story. A volatile cluster
// skips the journal steps. Admit shares append and journalFailedLocked
// but not this tail: it waits for its fsync off the lock, so the next
// caller's scan overlaps the flush.
func (c *Cluster) commitLocked(rec record, d *obs.Decision, tc obs.TraceContext, clk stageClock) error {
	c.sinceSnapshot++
	var journal, sync time.Duration
	var jerr error
	if c.jr != nil {
		clk.journal = time.Now()
		jerr = c.jr.append(rec)
		journal = time.Since(clk.journal)
		if jerr == nil {
			clk.sync = time.Now()
			jerr = c.jr.commit()
			sync = time.Since(clk.sync)
			c.met.fsyncSeconds.Observe(sync.Seconds())
		}
		if jerr != nil {
			jerr = c.journalFailedLocked(jerr)
		}
	}
	if d != nil {
		d.Stages.Journal, d.Stages.Sync = journal, sync
		c.cfg.Recorder.Record(*d)
		c.emitStageSpans(tc, d, clk)
	}
	return jerr
}

// finishLocked closes a mutating call: the periodic snapshot policy, then
// the count and instant of the energy sample the mutation is due (built
// by sampleEnergyLocked).
func (c *Cluster) finishLocked() {
	c.maybeSnapshotLocked()
	if c.cfg.Energy != nil {
		c.energyDue++
		c.energyWall = time.Now()
	}
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
