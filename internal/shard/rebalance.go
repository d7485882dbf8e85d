package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/obs"
)

// topoState is one immutable generation of the gate's routing state:
// the current shard map, while a topology drain is in flight the map it
// superseded, and one health record per active shard. Handlers load the
// pointer once per request, so a swap mid-request can never mix two
// topologies inside one fan-out, and a swap changes routing and health in
// one store.
//
// The transition window (prev != nil) is what makes a live resize
// invisible to clients: admissions route strictly by cur (a new VM is
// born on its final owner), while reads, releases and migrations cover
// the union of cur and prev — a remapped VM answers from wherever it
// currently lives until the drain moves it. The window closes (prev
// dropped) when the drain ends: after a pass that found nothing left to
// move, or after maxDrainPasses passes whatever failed. A VM whose move
// failed then stays on its old owner, which the gate no longer routes its
// ID to (ROADMAP item 23).
type topoState struct {
	cur    *Map
	prev   *Map
	health map[string]*shardHealth
}

// newTopo builds a generation over cur and prev. Each active shard keeps
// its record from old (nil for the first generation); a joining shard
// starts healthy-until-proven-otherwise, so a gate serves immediately and
// the first probe pass replaces optimism with verdicts.
func newTopo(cur, prev *Map, old *topoState) *topoState {
	ts := &topoState{cur: cur, prev: prev, health: make(map[string]*shardHealth)}
	for _, s := range ts.active() {
		h := &shardHealth{healthy: true}
		if old != nil && old.health[s.Name] != nil {
			h = old.health[s.Name]
		}
		ts.health[s.Name] = h
	}
	return ts
}

// active returns the shards a fan-out must cover: the current map's
// shards plus, during a transition window, any superseded shards that
// are not in the current map (they may still host undrained VMs).
func (ts *topoState) active() []Shard {
	out := ts.cur.Shards()
	if ts.prev == nil {
		return out
	}
	seen := make(map[string]bool, len(out))
	for _, s := range out {
		seen[s.Name] = true
	}
	for _, s := range ts.prev.Shards() {
		if !seen[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

// rebalancer tracks the gate's topology-drain state: the status of the
// current (or last finished) drain for GET /v1/topology, plus lifetime
// counters for /metrics. Active also serialises drains — POST
// /v1/topology refuses while one is running.
type rebalancer struct {
	mu     sync.Mutex
	status api.RebalanceStatus
	// Lifetime counters across all drains, for the
	// vmalloc_gate_rebalance_* metric families.
	moves, skipped, failed uint64
}

// maxDrainPasses bounds how many times one drain re-reads state and
// retries moves that failed transiently. Each pass only touches VMs
// still resident on a superseded owner, so extra passes are cheap.
const maxDrainPasses = 3

// handleTopology answers GET /v1/topology: the current epoch and shard
// set (weights always materialised) plus the rebalance status — Active
// true while a drain is in flight, and the last drain's move counts
// once it settles. Clients recovering from a stale_epoch rejection
// re-fetch this and re-route.
func (g *Gate) handleTopology(w http.ResponseWriter, r *http.Request) {
	t := g.topo.Load().cur.Topology()
	g.reb.mu.Lock()
	st := g.reb.status
	g.reb.mu.Unlock()
	api.WriteJSON(w, http.StatusOK, api.TopologyResponse{
		Epoch: t.Epoch, Shards: t.Shards, Rebalance: st,
	})
}

// handleTopologyPost applies a new topology epoch atomically: it
// validates the proposed api.Topology, fences it against the current
// epoch (not strictly newer → 409 stale_epoch) and against an in-flight
// drain (→ 409 rebalancing), swaps the routing state to open the
// transition window, and starts the background drain that moves every
// remapped VM to its new owner. The response reports the accepted
// topology with Rebalance.Active true; poll GET /v1/topology until
// Active is false to observe drain completion.
func (g *Gate) handleTopologyPost(w http.ResponseWriter, r *http.Request) {
	t, err := api.DecodeBody(r, api.DecodeTopology)
	if err != nil {
		api.WriteBadRequest(w, r, err)
		return
	}
	next, err := FromTopology(t)
	if err != nil {
		api.WriteBadRequest(w, r, err)
		return
	}

	// Admission control for the swap itself happens under the rebalancer
	// lock so two concurrent POSTs cannot both open a window.
	g.reb.mu.Lock()
	if g.reb.status.Active {
		st := g.reb.status
		g.reb.mu.Unlock()
		api.WriteError(w, r, http.StatusConflict, api.CodeRebalancing,
			fmt.Errorf("rebalance %d→%d is still draining; poll GET /v1/topology until rebalance.active is false", st.FromEpoch, st.ToEpoch))
		return
	}
	ts := g.topo.Load()
	old := ts.cur
	if t.Epoch <= old.Epoch() {
		g.reb.mu.Unlock()
		api.WriteError(w, r, http.StatusConflict, api.CodeStaleEpoch,
			fmt.Errorf("proposed epoch %d is not newer than the current epoch %d", t.Epoch, old.Epoch()))
		return
	}
	status := api.RebalanceStatus{Active: true, FromEpoch: old.Epoch(), ToEpoch: next.Epoch()}
	g.reb.status = status
	g.reb.mu.Unlock()

	// Open the transition window; the joined shards get their health
	// records in the same store.
	g.topo.Store(newTopo(next, old, ts))

	if g.cfg.Logger != nil {
		g.cfg.Logger.Info("topology accepted",
			"fromEpoch", old.Epoch(), "toEpoch", next.Epoch(),
			"shards", len(next.Shards()))
	}
	go g.rebalance(old, next)

	api.WriteJSON(w, http.StatusOK, api.TopologyResponse{
		Epoch: next.Epoch(), Shards: next.Topology().Shards, Rebalance: status,
	})
}

// placementRecord is one resident VM as read off a superseded owner
// during drain planning.
type placementRecord struct {
	pv    api.PlacedVM
	shard string
}

// rebalance drains every remapped VM from its old owner to its new one
// and then closes the transition window. Each move is a journaled
// adopt-then-release pair: the new owner adopts the VM under its
// original (start, end) identity first, and only a successful adoption
// releases it from the old owner — a crash between the two leaves the
// VM running on both shards, where the next pass (or a client release
// through the double-delete window) folds the duplicate away. The VM's
// identity, schedule and energy accounting survive the move; only the
// owning shard changes.
func (g *Gate) rebalance(old, next *Map) {
	ctx := context.Background()
	traceID, rootSpan := obs.NewTraceID(), obs.NewSpanID()
	t0 := time.Now()

	var planned, moved, skipped, failed int
	var lastErr string
	update := func() {
		g.reb.mu.Lock()
		g.reb.status.Planned, g.reb.status.Moved = planned, moved
		g.reb.status.Skipped, g.reb.status.Failed = skipped, failed
		g.reb.status.LastError = lastErr
		g.reb.mu.Unlock()
	}

	for pass := 0; pass < maxDrainPasses; pass++ {
		records, maxNow, err := g.readResidents(ctx, old.Shards())
		if err != nil {
			lastErr = err.Error()
			failed++
			update()
			continue
		}
		// New shards join at fleet minute 0; advancing them to the fleet
		// clock before the first adoption keeps the adopted VMs' energy
		// accounting aligned with what their old owners already charged.
		if err := g.syncClocks(ctx, old, next, maxNow); err != nil {
			lastErr = err.Error()
			failed++
			update()
			continue
		}

		byID := make(map[int]placementRecord, len(records))
		ids := make([]int, 0, len(records))
		for _, rec := range records {
			byID[rec.pv.VM.ID] = rec
			ids = append(ids, rec.pv.VM.ID)
		}
		moves := PlanMoves(old, next, ids)
		passPlanned, passFailed := 0, 0
		for _, mv := range moves {
			// Moves whose VM already sits on its new owner cost nothing;
			// everything else is work this pass will attempt (or skip).
			if rec := byID[mv.ID]; rec.shard != mv.To.Name {
				passPlanned++
			}
		}
		planned += passPlanned
		update()

		for _, mv := range moves {
			rec := byID[mv.ID]
			switch {
			case rec.shard == mv.To.Name:
				// Already home (a previous pass moved it between two
				// surviving shards); nothing to do.
				continue
			case rec.shard != mv.From.Name:
				// Resident somewhere the plan did not predict — leave it
				// alone rather than risk deleting the only copy.
				skipped++
				continue
			}
			ok, skip, err := g.moveVM(ctx, traceID, rootSpan, mv, rec.pv)
			switch {
			case err != nil:
				lastErr = err.Error()
				failed++
				passFailed++
			case skip:
				skipped++
			case ok:
				moved++
			}
			update()
		}
		// The drain finishes only after a pass that found nothing left to
		// move: an admission can race the window open, get re-sent to an
		// ex-owner with a fresh epoch stamp just after a pass read that
		// shard, and only a follow-up read will see it. A clean-but-busy
		// pass therefore earns another look; maxDrainPasses still bounds
		// the loop when a shard keeps refusing.
		if passPlanned == 0 && passFailed == 0 {
			break
		}
	}

	// Close the window: routing collapses to the new map alone, and the
	// shards that left the topology lose their health records.
	g.topo.Store(newTopo(next, nil, g.topo.Load()))
	g.reb.mu.Lock()
	g.reb.status = api.RebalanceStatus{
		FromEpoch: old.Epoch(), ToEpoch: next.Epoch(),
		Planned: planned, Moved: moved, Skipped: skipped, Failed: failed,
		LastError: lastErr,
	}
	g.reb.moves += uint64(moved)
	g.reb.skipped += uint64(skipped)
	g.reb.failed += uint64(failed)
	g.reb.mu.Unlock()

	g.cfg.Spans.Record(obs.Span{
		TraceID: traceID, SpanID: rootSpan, Name: obs.SpanRebalance,
		Detail: fmt.Sprintf("epoch %d→%d", old.Epoch(), next.Epoch()),
		Err:    lastErr, Start: t0, Duration: time.Since(t0),
	})
	if g.cfg.Logger != nil {
		g.cfg.Logger.Info("rebalance finished",
			"fromEpoch", old.Epoch(), "toEpoch", next.Epoch(),
			"planned", planned, "moved", moved, "skipped", skipped,
			"failed", failed, "lastError", lastErr)
	}
}

// readResidents scatter-gathers GET /v1/state over the superseded
// owners and returns every resident VM with the shard it answered from,
// plus the highest fleet clock seen.
func (g *Gate) readResidents(ctx context.Context, shards []Shard) ([]placementRecord, int, error) {
	states, perr := gather[api.StateResponse](g, ctx, shards, http.MethodGet, "/v1/state", nil)
	if perr != nil {
		return nil, 0, fmt.Errorf("read residents: %s", perr.Envelope.Message)
	}
	var records []placementRecord
	maxNow := 0
	for i, st := range states {
		maxNow = max(maxNow, st.Now)
		for _, pv := range st.VMs {
			records = append(records, placementRecord{pv: pv, shard: shards[i].Name})
		}
	}
	return records, maxNow, nil
}

// syncClocks advances shards that joined in next (and are absent from
// old) to the fleet clock, so adoptions on them charge energy from the
// true handoff minute rather than from a clock still at zero.
func (g *Gate) syncClocks(ctx context.Context, old, next *Map, now int) error {
	if now <= 0 {
		return nil
	}
	body, err := json.Marshal(api.ClockRequest{Now: &now})
	if err != nil {
		return err
	}
	for _, s := range next.Shards() {
		if _, ok := old.ByName(s.Name); ok {
			continue
		}
		if _, _, perr := g.call(ctx, s, http.MethodPost, "/v1/clock", body); perr != nil {
			return fmt.Errorf("sync clock on joined shard %s: %s", s.Name, perr.Envelope.Message)
		}
	}
	return nil
}

// moveVM executes one drain move: adopt on the new owner, then release
// from the old one. Returns (moved, skipped, err) — exactly one is set.
// An infeasible adoption (the VM departed between planning and
// execution) is a skip, not a failure. A release that finds the VM
// already gone triggers the compensation path: the adoption is rolled
// back on the new owner too, because "already gone" means a concurrent
// client release won the race and the VM must not resurrect.
func (g *Gate) moveVM(ctx context.Context, traceID, parent string, mv Move, pv api.PlacedVM) (bool, bool, error) {
	t0 := time.Now()
	detail := fmt.Sprintf("%s→%s", mv.From.Name, mv.To.Name)
	span := func(errMsg string) {
		g.cfg.Spans.Record(obs.Span{
			TraceID: traceID, SpanID: obs.NewSpanID(), Parent: parent,
			Name: obs.SpanRebalanceMove, VM: mv.ID, Detail: detail,
			Err: errMsg, Start: t0, Duration: time.Since(t0),
		})
	}

	body, err := json.Marshal(api.AdoptRequest{VM: pv.VM, Start: pv.Start})
	if err != nil {
		span(err.Error())
		return false, false, err
	}
	if _, _, perr := g.call(ctx, mv.To, http.MethodPost, "/v1/adoptions", body); perr != nil {
		if perr.Envelope.Code == api.CodeMigrationInfeasible {
			// The VM departed (or shrank out of feasibility) between the
			// state read and now; nothing to drain.
			span("")
			return false, true, nil
		}
		span(perr.Envelope.Message)
		return false, false, fmt.Errorf("adopt vm %d on %s: %s", mv.ID, mv.To.Name, perr.Envelope.Message)
	}

	path := "/v1/vms/" + strconv.Itoa(mv.ID)
	if _, _, perr := g.call(ctx, mv.From, http.MethodDelete, path, nil); perr != nil {
		if perr.Envelope.Code == api.CodeNotResident {
			// A client released the VM between our adopt and this
			// release; undo the adoption so the release sticks.
			if _, _, cerr := g.call(ctx, mv.To, http.MethodDelete, path, nil); cerr != nil && cerr.Envelope.Code != api.CodeNotResident {
				span(cerr.Envelope.Message)
				return false, false, fmt.Errorf("compensate vm %d on %s: %s", mv.ID, mv.To.Name, cerr.Envelope.Message)
			}
			span("")
			return false, true, nil
		}
		span(perr.Envelope.Message)
		return false, false, fmt.Errorf("release vm %d from %s: %s", mv.ID, mv.From.Name, perr.Envelope.Message)
	}
	span("")
	return true, false, nil
}

// writeRebalanceMetrics emits the vmalloc_gate_rebalance_* and topology
// epoch families into the gate's /metrics exposition.
func (g *Gate) writeRebalanceMetrics(w io.Writer) {
	g.reb.mu.Lock()
	active := 0
	if g.reb.status.Active {
		active = 1
	}
	moves, skipped, failed := g.reb.moves, g.reb.skipped, g.reb.failed
	g.reb.mu.Unlock()
	epoch := g.topo.Load().cur.Epoch()

	obs.Gauge(w, "vmalloc_gate_topology_epoch", "Current shard-topology epoch (0 = unversioned map).", epoch)
	obs.Gauge(w, "vmalloc_gate_rebalance_active", "1 while a topology drain is in flight.", active)
	obs.Counter(w, "vmalloc_gate_rebalance_moves_total", "VMs drained to their new owner across all topology rebalances.", moves)
	obs.Counter(w, "vmalloc_gate_rebalance_skipped_total", "Planned drain moves skipped because the VM departed first.", skipped)
	obs.Counter(w, "vmalloc_gate_rebalance_failed_total", "Drain moves that failed and were retried or abandoned.", failed)
}
