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

// admitCall is one Admit call in flight to the dispatcher, carrying the
// trace context captured at the API edge: the request id, the HTTP
// decode span, and the enqueue instant (queue-wait starts here).
type admitCall struct {
	reqs     []api.AdmitRequest
	adms     []api.AdmitResponse
	reqID    string
	trace    obs.TraceContext
	decode   time.Duration
	enqueued time.Time
	reply    chan admitReply
}

type admitReply struct {
	adms []api.AdmitResponse
	err  error
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
func (c *Cluster) Admit(ctx context.Context, reqs []api.AdmitRequest) ([]api.AdmitResponse, error) {
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

// dispatch is the self-clocked batching loop: the first queued Admit call
// opens a batch, a non-blocking drain takes the calls that parked on
// admitCh while the previous batch was being placed, and the batch is
// placed at once. Batches grow from backpressure (a busy lock, a long
// scan), never from a clock; fsync sharing is the journal committer's job.
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
	drain:
		for {
			select {
			case call := <-c.admitCh:
				batch = append(batch, call)
			default:
				break drain
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
	// The dispatcher exits before Close marks the cluster closed, so the
	// only refusal the guard can hand a batch is the broken journal.
	if err := c.guardLocked(); err != nil {
		c.mu.Unlock()
		for _, call := range batch {
			call.reply <- admitReply{err: err}
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
		call.adms = make([]api.AdmitResponse, len(call.reqs))
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
			c.emitStageSpans(call.trace, &d, stageClock{entered: call.enqueued})
		}
	}
	// Deterministic batch order: by start minute, then VM ID. Placing the
	// batch is then identical to sequential admission in this order,
	// regardless of how the requests raced into the batch.
	sort.SliceStable(items, func(a, b int) bool {
		if items[a].vm.Start != items[b].vm.Start {
			return items[a].vm.Start < items[b].vm.Start
		}
		return items[a].vm.ID < items[b].vm.ID
	})
	fv := c.fleet.View()
	scanBefore := fv.ScanCounts()
	var scanWall time.Duration
	// pend holds this batch's not-yet-recorded decisions: the batch
	// fsync duration is only known after the loop, so journaled admits
	// (journaled == true) are stamped with it and recorded at the end.
	type pendDecision struct {
		d         obs.Decision
		journaled bool
		// Span raw material: the trace context the call carried in and
		// each timed stage's start instant.
		trace obs.TraceContext
		clk   stageClock
	}
	var pend []pendDecision
	// observe gates the per-item decision bookkeeping: both sinks are
	// passive, so when neither is wired the loop skips the copies.
	observe := c.rec != nil || c.cfg.Spans != nil
	var jerr error
	appended := false
	placed := 0
	for _, it := range items {
		adm := &it.call.adms[it.pos]
		clk := stageClock{entered: it.call.enqueued}
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
				pend = append(pend, pendDecision{d: d, trace: it.call.trace, clk: clk})
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
				pend = append(pend, pendDecision{d: d, trace: it.call.trace, clk: clk})
			}
			continue
		}
		if c.jr != nil {
			clk.journal = time.Now()
			jerr = c.jr.append(record{Op: opAdmit, T: c.fleet.Now(), VM: it.vm, Server: i, Start: start})
			d.Stages.Journal = time.Since(clk.journal)
			if jerr == nil {
				appended = true
			}
		}
		adm.Accepted = true
		adm.Server = fv.Server(i).ID
		adm.Start = start
		adm.End = start + it.vm.Duration() - 1
		c.met.admissions++
		c.sinceSnapshot++
		placed++
		if observe {
			d.Op = obs.OpAdmit
			d.Server = adm.Server
			d.Start, d.End = adm.Start, adm.End
			pend = append(pend, pendDecision{d: d, journaled: c.jr != nil && jerr == nil, trace: it.call.trace, clk: clk})
		}
	}
	if jerr != nil {
		jerr = c.journalFailedLocked(jerr)
	}
	c.met.batches++
	c.met.batchSize.Observe(float64(total))
	c.met.scanSeconds.Observe(scanWall.Seconds())
	candidates := fv.ScanCounts().Evaluated - scanBefore.Evaluated
	c.finishLocked()
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
			p.clk.sync = syncT0
			c.emitStageSpans(p.trace, &p.d, p.clk)
		}
		c.log.Debug("batch processed",
			"batch", batchID,
			"requests", total,
			"placed", placed,
			"rejected", total-placed,
			"candidates", candidates,
			"scan", scanWall,
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
