package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"vmalloc"
	"vmalloc/internal/api"
)

// ledger is the bench's own record of what the service acknowledged: every
// accepted VM with the server and interval its admit reply named, and every
// acknowledged release. The checks recompute the paper's constraints from
// it and compare it with what GET /v1/state shows — nothing in it comes
// from the daemons' own bookkeeping.
type ledger struct {
	mu     sync.Mutex
	fleets [][]vmalloc.Server // one server list per shard, in -fleet order
	where  map[int]serverRef  // server ID → its shard and index
	sent   map[int]bool       // every VM ID ever put on the wire
	vms    map[int]*placedVM  // acknowledged admissions
	// attempted and failed are the run's op counts: one per VM admission,
	// release, clock tick and read. A refusal, a transport error, a non-2xx
	// answer and a failed check each count as one failed op.
	attempted, failed int
	problems          []string // first few failures, for the report
}

type serverRef struct{ shard, index int }

// placedVM is one acknowledged admission.
type placedVM struct {
	id         int
	at         serverRef
	start, end int // the reply's interval, wake-up delay included
	cpu, mem   float64
	// releasedAt is the fleet minute an acknowledged release happened at,
	// 0 while the VM runs to its end; releasing marks a release in flight.
	releasedAt int
	releasing  bool
}

// realised returns the minutes the VM actually occupied its server: the
// admitted interval, cut at the release minute. ok is false for a VM
// released before it started.
func (p *placedVM) realised() (start, end int, ok bool) {
	end = p.end
	if p.releasedAt > 0 && p.releasedAt < end {
		end = p.releasedAt
	}
	return p.start, end, end >= p.start
}

func newLedger(fleets [][]vmalloc.Server) *ledger {
	l := &ledger{fleets: fleets, where: map[int]serverRef{}, sent: map[int]bool{}, vms: map[int]*placedVM{}}
	for s, fleet := range fleets {
		for i, srv := range fleet {
			l.where[srv.ID] = serverRef{s, i}
		}
	}
	return l
}

const maxProblems = 8

// fail counts n failed ops and keeps the first few descriptions.
func (l *ledger) fail(n int, format string, args ...any) {
	l.failed += n
	if len(l.problems) < maxProblems {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// failf is fail for callers that do not hold the lock.
func (l *ledger) failf(n int, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fail(n, format, args...)
}

// noteSent records that the IDs are about to go on the wire.
func (l *ledger) noteSent(reqs []api.AdmitRequest) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range reqs {
		l.sent[r.ID] = true
	}
}

// noteAdmit folds one admit call's outcome in: a failed call fails every
// VM it carried, a refusal fails its VM, an acceptance is checked for
// shape and recorded.
func (l *ledger) noteAdmit(reqs []api.AdmitRequest, resps []api.AdmitResponse, r reply) (accepted int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted += len(reqs)
	if r.failed() {
		l.fail(len(reqs), "admit call with %d VMs: %s", len(reqs), r.describe())
		return 0
	}
	if len(resps) != len(reqs) {
		l.fail(len(reqs), "admit call: %d answers for %d requests", len(resps), len(reqs))
		return 0
	}
	for i, resp := range resps {
		req := reqs[i]
		switch {
		case resp.ID != req.ID:
			l.fail(1, "admit answer %d is for vm %d, request was vm %d", i, resp.ID, req.ID)
		case !resp.Accepted:
			l.fail(1, "vm %d refused: %s", req.ID, resp.Reason)
		default:
			at, known := l.where[resp.Server]
			switch {
			case !known:
				l.fail(1, "vm %d placed on unknown server %d", req.ID, resp.Server)
			case l.vms[req.ID] != nil:
				l.fail(1, "vm %d acknowledged twice", req.ID)
			case resp.Start < req.Start || resp.End-resp.Start+1 != req.DurationMinutes:
				l.fail(1, "vm %d asked [%d,+%d) got [%d,%d]", req.ID, req.Start, req.DurationMinutes, resp.Start, resp.End)
			default:
				l.vms[req.ID] = &placedVM{id: req.ID, at: at, start: resp.Start, end: resp.End,
					cpu: req.Demand.CPU, mem: req.Demand.Mem}
				accepted++
			}
		}
	}
	return accepted
}

// beginRelease marks a release in flight, so a state read racing it may
// show the VM either way. It reports false for a VM that was never
// acknowledged, which there is nothing to release of.
func (l *ledger) beginRelease(id int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.vms[id]
	if p != nil {
		p.releasing = true
	}
	return p != nil
}

func (l *ledger) noteRelease(id, minute int, r reply) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	p := l.vms[id]
	if p != nil {
		p.releasing = false
	}
	if r.failed() {
		l.fail(1, "release of vm %d at minute %d: %s", id, minute, r.describe())
		return
	}
	if p != nil {
		p.releasedAt = minute
	}
}

// noteOp counts a clock tick, read or operator call.
func (l *ledger) noteOp(what string, r reply) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if r.failed() {
		l.fail(1, "%s: %s", what, r.describe())
	}
}

// mustBeResident returns the VMs a state read started at fleet minute now
// has to show: acknowledged, not past their end, and with no release done
// or in flight.
func (l *ledger) mustBeResident(now int) map[int]bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	must := make(map[int]bool)
	for id, p := range l.vms {
		if p.end >= now && p.releasedAt == 0 && !p.releasing {
			must[id] = true
		}
	}
	return must
}

// checkSnapshot holds one state read against the ledger (Eq. 11 and
// durability): every resident is a VM the bench sent, shown once, on the
// server its admit reply named; and every VM in must is there. It returns
// one line per violation.
func (l *ledger) checkSnapshot(view *stateView, must map[int]bool) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var bad []string
	seen := make(map[int]residentObs, len(view.residents))
	for _, o := range view.residents {
		if prev, dup := seen[o.id]; dup {
			bad = append(bad, fmt.Sprintf("double residency: vm %d is on shard %d server #%d and shard %d server #%d",
				o.id, prev.shard, prev.server, o.shard, o.server))
			continue
		}
		seen[o.id] = o
		if !l.sent[o.id] {
			bad = append(bad, fmt.Sprintf("phantom resident: vm %d was never sent", o.id))
			continue
		}
		if p := l.vms[o.id]; p != nil && (p.at.shard != o.shard || p.at.index != o.server) {
			bad = append(bad, fmt.Sprintf("vm %d acknowledged on shard %d server #%d but resident on shard %d server #%d",
				o.id, p.at.shard, p.at.index, o.shard, o.server))
		}
	}
	for id := range must {
		if _, ok := seen[id]; !ok {
			bad = append(bad, fmt.Sprintf("lost acknowledged write: vm %d was accepted and is not resident at minute %d", id, view.now))
		}
	}
	sort.Strings(bad)
	return bad
}

// checkCapacity recomputes Eq. 9–10 from the acknowledged intervals: on
// every server, at every minute, the CPU and memory of the VMs the replies
// put there fit the server. It returns one line per overflowing server.
func (l *ledger) checkCapacity() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	type edge struct {
		t        int
		cpu, mem float64
	}
	per := map[serverRef][]edge{}
	for _, p := range l.vms {
		s, e, ok := p.realised()
		if !ok {
			continue
		}
		per[p.at] = append(per[p.at], edge{s, p.cpu, p.mem}, edge{e + 1, -p.cpu, -p.mem})
	}
	// Demands are sums of catalog values; the slack only absorbs the order
	// the additions happen in.
	const eps = 1e-6
	var bad []string
	for at, edges := range per {
		sort.Slice(edges, func(a, b int) bool {
			if edges[a].t != edges[b].t {
				return edges[a].t < edges[b].t
			}
			return edges[a].cpu < edges[b].cpu // departures before same-minute arrivals
		})
		srv := l.fleets[at.shard][at.index]
		var cpu, mem float64
		for _, e := range edges {
			cpu += e.cpu
			mem += e.mem
			if cpu > srv.Capacity.CPU+eps || mem > srv.Capacity.Mem+eps {
				bad = append(bad, fmt.Sprintf("capacity overflow: server %d holds cpu %.2f/%.2f mem %.2f/%.2f at minute %d",
					srv.ID, cpu, srv.Capacity.CPU, mem, srv.Capacity.Mem, e.t))
				break
			}
		}
	}
	sort.Strings(bad)
	return bad
}

// checkCounts compares a quiescent state read's lifetime counters with the
// acknowledgements.
func (l *ledger) checkCounts(view *stateView) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var released int
	for _, p := range l.vms {
		if p.releasedAt > 0 {
			released++
		}
	}
	var bad []string
	if view.admitted != len(l.vms) {
		bad = append(bad, fmt.Sprintf("state counts %d admissions, %d were acknowledged", view.admitted, len(l.vms)))
	}
	if view.released != released {
		bad = append(bad, fmt.Sprintf("state counts %d releases, %d were acknowledged", view.released, released))
	}
	return bad
}

// noteCheck folds a check's violations into the failure count.
func (l *ledger) noteCheck(name string, violations []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, v := range violations {
		l.fail(1, "%s: %s", name, v)
	}
}

// accepted is the number of acknowledged admissions.
func (l *ledger) accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.vms)
}

// realisedInstance builds the instance the FFPS baseline is run on: the
// same servers, and every accepted VM over the minutes it really held
// (start delay and early release included).
func (l *ledger) realisedInstance() vmalloc.Instance {
	l.mu.Lock()
	defer l.mu.Unlock()
	vms := make([]vmalloc.VM, 0, len(l.vms))
	for _, p := range l.vms {
		if s, e, ok := p.realised(); ok {
			vms = append(vms, vmalloc.VM{ID: p.id, Demand: vmalloc.Resources{CPU: p.cpu, Mem: p.mem}, Start: s, End: e})
		}
	}
	sort.Slice(vms, func(a, b int) bool { return vms[a].ID < vms[b].ID })
	var servers []vmalloc.Server
	for _, f := range l.fleets {
		servers = append(servers, f...)
	}
	return vmalloc.NewInstance(vms, servers)
}

// outcomeDigest fingerprints every acknowledged placement and release; on
// a step-deterministic workload it is equal across repetitions.
func (l *ledger) outcomeDigest() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make([]int, 0, len(l.vms))
	for id := range l.vms {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	for _, id := range ids {
		p := l.vms[id]
		fmt.Fprintf(h, "%d %d/%d %d %d %d\n", id, p.at.shard, p.at.index, p.start, p.end, p.releasedAt)
	}
	return hex.EncodeToString(h.Sum(nil))
}
