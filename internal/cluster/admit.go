package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
)

// batchItem is one normalised, not-yet-placed request of an Admit call.
type batchItem struct {
	pos int
	vm  model.VM
}

// Admit places requests under the cluster lock and blocks until the
// journal flush covering them completes. Per-request outcomes — including
// structured rejections for VMs no server can host — come back in the
// same order as reqs; the requests are placed in (start, ID) order, one
// VM at a time, each against the fleet its predecessors left. A context
// that ends before the lock is taken places nothing and returns its
// error. Otherwise the error is nil unless the cluster is closed or the
// journal fails: then at most the admission that broke the journal took
// effect in memory (reported alongside the error), the call's remaining
// requests are rejected unplaced, and the cluster refuses further
// mutations with ErrJournalBroken until a successful Snapshot restores
// durability. Per-stage wall timings (lock wait, scan, commit, journal
// append, the commit flush) are measured on the way and recorded —
// together with the request id the context carries — as flight-recorder
// decisions.
func (c *Cluster) Admit(ctx context.Context, reqs []api.AdmitRequest) ([]api.AdmitResponse, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	reqID, tc, decode := obs.RequestID(ctx), obs.TraceContextFrom(ctx), obs.DecodeSpan(ctx)
	entered := time.Now()
	c.mu.Lock()
	locked := time.Now()
	queueWait := locked.Sub(entered)
	// Past this check the call answers with what it placed.
	err := ctx.Err()
	if err == nil {
		err = c.guardLocked()
	}
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.met.queueWaitSeconds.Observe(queueWait.Seconds())
	// observe gates the per-request decision bookkeeping: both sinks are
	// passive, so when neither is wired the call skips the copies.
	observe := c.cfg.Recorder != nil || c.cfg.Spans != nil
	base := obs.Decision{
		RequestID: reqID,
		TraceID:   tc.TraceID,
		Batch:     c.met.batches + 1,
		Stages:    obs.StageTimings{Decode: decode, QueueWait: queueWait},
	}
	// pend holds the call's not-yet-recorded decisions, each with the
	// instant each of its timed stages started: the fsync duration is
	// only known once the flush completes, so admits are stamped with it
	// at the end.
	type pendDecision struct {
		d   obs.Decision
		clk stageClock
	}
	var pend []pendDecision
	now := max(c.fleet.Now(), 1) // the model's horizon starts at minute 1
	adms := make([]api.AdmitResponse, len(reqs))
	items := make([]batchItem, 0, len(reqs))
	for k, req := range reqs {
		vm, adm, ok := c.normalize(req, now)
		adms[k] = adm
		if ok {
			items = append(items, batchItem{pos: k, vm: vm})
		} else if observe {
			// Normalisation rejects never reach the scan or the journal.
			d := base
			d.Op, d.VM, d.Clock, d.Reason = obs.OpReject, adm.ID, now, adm.Reason
			pend = append(pend, pendDecision{d: d, clk: stageClock{entered: entered}})
		}
	}
	// Deterministic order: by start minute, then VM ID, whatever order
	// the caller listed its requests in.
	sort.SliceStable(items, func(a, b int) bool {
		if items[a].vm.Start != items[b].vm.Start {
			return items[a].vm.Start < items[b].vm.Start
		}
		return items[a].vm.ID < items[b].vm.ID
	})
	if len(items) > 0 && items[len(items)-1].vm.Start > c.fleet.Now() {
		c.sampleEnergyLocked() // the batch moves the clock
	}
	fv := c.fleet.View()
	scanBefore := fv.ScanCounts()
	var scanWall time.Duration
	var jerr error
	placed := 0
	for _, it := range items {
		adm := &adms[it.pos]
		clk := stageClock{entered: entered}
		d := base
		d.VM = it.vm.ID
		if jerr != nil {
			// The journal broke earlier in this call: stop mutating so
			// memory never runs ahead of the log by more than the single
			// admission that broke it.
			c.met.rejections++
			adm.Reason = "journal broken; admission not attempted"
			if observe {
				d.Op, d.Clock, d.Reason = obs.OpReject, c.fleet.Now(), adm.Reason
				pend = append(pend, pendDecision{d: d, clk: clk})
			}
			continue
		}
		c.fleet.AdvanceTo(it.vm.Start)
		probed := fv.ScanCounts()
		clk.scan = time.Now()
		i, err := c.policy.Place(fv, it.vm)
		d.Stages.Scan = time.Since(clk.scan)
		scanWall += d.Stages.Scan
		counts := fv.ScanCounts()
		d.Candidates = int64(counts.Evaluated - probed.Evaluated)
		d.Infeasible = int64(counts.Infeasible - probed.Infeasible)
		d.Clock = c.fleet.Now()
		var start int
		if err == nil {
			clk.commit = time.Now()
			start, err = c.fleet.Commit(i, it.vm)
			d.Stages.Commit = time.Since(clk.commit)
		}
		if err != nil {
			// No capacity anywhere, or the chosen server refused the commit.
			c.met.rejections++
			adm.Reason = err.Error()
			if observe {
				d.Op, d.Reason = obs.OpReject, adm.Reason
				pend = append(pend, pendDecision{d: d, clk: clk})
			}
			continue
		}
		if c.jr != nil {
			clk.journal = time.Now()
			jerr = c.jr.append(record{Op: opAdmit, T: c.fleet.Now(), VM: it.vm, Server: i, Start: start})
			d.Stages.Journal = time.Since(clk.journal)
		}
		adm.Accepted = true
		adm.Server = fv.Server(i).ID
		adm.Start = start
		adm.End = start + it.vm.Duration() - 1
		c.sinceSnapshot++
		placed++
		if observe {
			d.Op = obs.OpAdmit
			d.Server = adm.Server
			d.Start, d.End = adm.Start, adm.End
			pend = append(pend, pendDecision{d: d, clk: clk})
		}
	}
	if jerr != nil {
		jerr = c.journalFailedLocked(jerr)
	}
	c.met.batches++
	c.met.batchSize.Observe(float64(len(reqs)))
	c.met.scanSeconds.Observe(scanWall.Seconds())
	candidates := fv.ScanCounts().Evaluated - scanBefore.Evaluated
	c.finishLocked()
	var syncT0 time.Time
	var syncDur time.Duration
	if c.jr == nil || placed == 0 || jerr != nil {
		c.mu.Unlock()
	} else {
		// Group commit: wait for the flush covering this call's records
		// off the lock, so the next caller's scan overlaps the fsync and
		// concurrent calls share one flush, issued by whichever of them
		// finds none running. Close waits for inflight before it closes
		// the journal.
		jr := c.jr
		c.inflight.Add(1)
		c.mu.Unlock()
		syncT0 = time.Now()
		jerr = jr.commit()
		syncDur = time.Since(syncT0)
		c.mu.Lock()
		c.met.fsyncSeconds.Observe(syncDur.Seconds())
		if jerr != nil {
			jerr = c.journalFailedLocked(jerr)
		}
		c.mu.Unlock()
		c.inflight.Done()
	}
	for k := range pend {
		p := &pend[k]
		// A flush ran only if every admit of the call was appended; a
		// reject keeps Stages.Sync == 0, so emitStageSpans drops its span.
		if p.d.Op == obs.OpAdmit {
			p.d.Stages.Sync = syncDur
		}
		c.cfg.Recorder.Record(p.d)
		p.clk.sync = syncT0
		c.emitStageSpans(tc, &p.d, p.clk)
	}
	c.log.Debug("batch processed",
		"batch", base.Batch,
		"requests", len(reqs),
		"placed", placed,
		"rejected", len(reqs)-placed,
		"candidates", candidates,
		"scan", scanWall,
		"sync", syncDur,
		"duration", time.Since(locked),
	)
	return adms, jerr
}

// normalize turns a request into a model VM at the current clock, or a
// structured rejection.
func (c *Cluster) normalize(req api.AdmitRequest, now int) (model.VM, api.AdmitResponse, bool) {
	adm := api.AdmitResponse{ID: req.ID}
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
	}
	if id == math.MaxInt {
		// nextID would wrap to math.MinInt and hand out negative ids.
		adm.Reason = fmt.Sprintf("vm id %d is reserved: no id follows it", id)
		return model.VM{}, adm, false
	}
	c.nextID = max(c.nextID, id+1)
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
