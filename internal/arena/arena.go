// Package arena is the shadow-evaluation subsystem: it runs challenger
// placement policies against full counterfactual fleet replicas fed the
// same admission/release/clock stream as the live fleet, so that each
// challenger's energy, rejection count and placement-divergence rate
// are true counterfactuals — the numbers that fleet *would* have
// produced had it been the champion — rather than single-decision
// scores.
//
// Replica semantics: every registered challenger owns a private
// online.Fleet built from the same server catalog and idle timeout as
// the live cluster. The cluster forwards each processed micro-batch
// (post-normalization, in commit order), each successful release, and
// each clock advance; the arena replays them on every replica, except
// that placement decisions are the challenger's own — a challenger may
// accept a VM the champion rejected, place it elsewhere, or reject one
// the champion accepted, and from that point its replica's occupancy,
// transitions and energy integral evolve independently.
//
// The live path is strictly placement- and digest-neutral: the cluster
// hands events to the arena through non-blocking offers into a bounded
// queue consumed by a single goroutine. When the queue is full the
// event is dropped and counted (Stats.Dropped, the
// vmalloc_arena_dropped_events_total metric) — the live admission path
// never waits on the arena, and the arena never touches live state.
//
// Divergence: a challenger's decision for an admission diverges when
// its chosen server ID differs from the champion's (0 means rejected,
// so an accept/reject disagreement is a divergence; both rejecting is
// agreement). Releases and clock ticks are replayed but not scored; a
// release of a VM a replica never admitted is skipped — that
// divergence was already counted at admission time.
package arena

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"

	"vmalloc/internal/model"
	"vmalloc/internal/obs"
	"vmalloc/internal/online"
)

// DefaultQueueSize is the event-queue capacity when Config.QueueSize is
// 0: deep enough that a live burst does not drop events while the apply
// goroutine replays a batch, small enough to bound memory.
const DefaultQueueSize = 256

// Config configures an Arena. Servers and IdleTimeout must match the
// live cluster's, or the counterfactuals answer a different question.
type Config struct {
	// Servers is the server catalog every challenger replica is built
	// from (same order as the live fleet: a placement index i means the
	// same machine on both sides).
	Servers []model.Server
	// IdleTimeout is the live fleet's idle shutdown timeout, in fleet
	// minutes.
	IdleTimeout int
	// QueueSize bounds the event queue; 0 means DefaultQueueSize.
	QueueSize int
	// Recorder, when set, receives one OpShadow decision per challenger
	// per admission, alongside the champion's own decision.
	Recorder *obs.FlightRecorder
	// Logger, when set, logs lifecycle events.
	Logger *slog.Logger
}

// AdmitOutcome is the champion's verdict on one admission, as forwarded
// by the cluster: the normalized VM exactly as the live fleet saw it,
// and where it landed.
type AdmitOutcome struct {
	// RequestID is the HTTP request id that carried the admission.
	RequestID string
	// VM is the admitted VM after normalization (ID assigned, start
	// clamped) — the same value the live fleet committed or rejected.
	VM model.VM
	// Server is the champion's hosting server ID; 0 means rejected.
	Server int
	// Accepted reports the champion's verdict.
	Accepted bool
}

// Report is one challenger's cumulative counterfactual scoreboard.
type Report struct {
	// Name is the challenger's registration name.
	Name string
	// Policy is the underlying policy's self-reported name.
	Policy string
	// Decisions counts admissions the challenger scored.
	Decisions uint64
	// Divergences counts decisions whose server ID differed from the
	// champion's (accept/reject disagreements included).
	Divergences uint64
	// Rejections counts admissions the challenger turned down.
	Rejections uint64
	// ChampionRejections counts admissions the champion turned down
	// among the same decisions, so RejectionDelta is comparable.
	ChampionRejections uint64
	// EnergyWattMinutes is the replica fleet's energy integral at its
	// current clock — the challenger's counterfactual Eq. 17 figure.
	EnergyWattMinutes float64
	// Residents is the replica fleet's current resident count.
	Residents int
	// Clock is the replica fleet's clock, in fleet minutes.
	Clock int
}

// Stats is the arena-wide event accounting.
type Stats struct {
	// Batches counts admission batches applied to the replicas.
	Batches uint64
	// Events counts events accepted into the queue (batches, releases,
	// ticks).
	Events uint64
	// Dropped counts events discarded because the queue was full.
	Dropped uint64
	// QueueDepth is the current number of queued, unapplied events.
	QueueDepth int
}

const (
	evBatch = iota
	evRelease
	evTick
)

type event struct {
	kind  int
	t     int // release/tick: fleet minute
	id    int // release: VM id
	batch uint64
	items []AdmitOutcome
}

type challenger struct {
	name        string
	policy      online.Policy
	fleet       *online.Fleet
	decisions   uint64
	divergences uint64
	rejections  uint64
}

// Arena owns the challenger replicas and the event queue feeding them.
// Offers are safe from any goroutine; replicas are mutated only by the
// single apply goroutine started by Start.
type Arena struct {
	cfg     Config
	ch      chan event
	stop    chan struct{}
	done    chan struct{}
	started bool
	events  atomic.Uint64
	dropped atomic.Uint64

	mu                 sync.Mutex
	challengers        []*challenger
	batches            uint64
	championRejections uint64
}

// New returns an arena with no challengers; Register challengers, then
// Start it. A nil *Arena is a valid no-op target for every Offer.
func New(cfg Config) *Arena {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = DefaultQueueSize
	}
	return &Arena{
		cfg:  cfg,
		ch:   make(chan event, cfg.QueueSize),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Register adds a challenger under a unique name, with a fresh replica
// fleet. It must be called before Start.
func (a *Arena) Register(name string, p online.Policy) error {
	if name == "" {
		return errors.New("arena: challenger name must not be empty")
	}
	if p == nil {
		return errors.New("arena: challenger policy must not be nil")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.started {
		return errors.New("arena: cannot register challengers after Start")
	}
	for _, c := range a.challengers {
		if c.name == name {
			return fmt.Errorf("arena: challenger %q already registered", name)
		}
	}
	a.challengers = append(a.challengers, &challenger{
		name:   name,
		policy: p,
		fleet:  online.NewFleet(a.cfg.Servers, a.cfg.IdleTimeout),
	})
	return nil
}

// Challengers returns the registered challenger names, in registration
// order.
func (a *Arena) Challengers() []string {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, len(a.challengers))
	for i, c := range a.challengers {
		names[i] = c.name
	}
	return names
}

// Start launches the apply goroutine. Calling Start twice panics.
func (a *Arena) Start() {
	a.mu.Lock()
	if a.started {
		a.mu.Unlock()
		panic("arena: Start called twice")
	}
	a.started = true
	n := len(a.challengers)
	a.mu.Unlock()
	if a.cfg.Logger != nil {
		a.cfg.Logger.Info("arena started", "challengers", n, "queue", cap(a.ch))
	}
	go a.loop()
}

// Close stops the apply goroutine after draining every event already
// queued, so Reports read after Close reflect all accepted events.
// Offers after Close are dropped and counted. Close is idempotent.
func (a *Arena) Close() {
	a.mu.Lock()
	if !a.started {
		// Never started: nothing to drain, but mark the arena closed so
		// late offers drop instead of filling the queue forever.
		a.started = true
		close(a.stop)
		close(a.done)
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	<-a.done
}

func (a *Arena) loop() {
	defer close(a.done)
	for {
		select {
		case ev := <-a.ch:
			a.apply(ev)
		case <-a.stop:
			for {
				select {
				case ev := <-a.ch:
					a.apply(ev)
				default:
					return
				}
			}
		}
	}
}

// offer enqueues without ever blocking: a full queue (or a closed
// arena) drops the event and bumps the dropped counter.
func (a *Arena) offer(ev event) {
	select {
	case <-a.stop:
		a.dropped.Add(1)
		return
	default:
	}
	select {
	case a.ch <- ev:
		a.events.Add(1)
	default:
		a.dropped.Add(1)
	}
}

// OfferBatch forwards one processed admission batch: the champion's
// outcomes in commit order, post-normalization. Safe on a nil arena.
func (a *Arena) OfferBatch(batch uint64, items []AdmitOutcome) {
	if a == nil || len(items) == 0 {
		return
	}
	a.offer(event{kind: evBatch, batch: batch, items: items})
}

// OfferRelease forwards one successful early release at fleet minute t.
// Safe on a nil arena.
func (a *Arena) OfferRelease(t, id int) {
	if a == nil {
		return
	}
	a.offer(event{kind: evRelease, t: t, id: id})
}

// OfferTick forwards a clock advance to fleet minute t. Safe on a nil
// arena.
func (a *Arena) OfferTick(t int) {
	if a == nil {
		return
	}
	a.offer(event{kind: evTick, t: t})
}

func (a *Arena) apply(ev event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch ev.kind {
	case evBatch:
		a.batches++
		for i := range ev.items {
			it := &ev.items[i]
			if !it.Accepted {
				a.championRejections++
			}
			for _, c := range a.challengers {
				a.applyAdmit(c, it, ev.batch)
			}
		}
	case evRelease:
		for _, c := range a.challengers {
			if ev.t > c.fleet.Now() {
				c.fleet.AdvanceTo(ev.t)
			}
			if _, ok := c.fleet.Resident(ev.id); ok {
				c.fleet.Release(ev.id) //nolint:errcheck // resident: cannot fail
			}
		}
	case evTick:
		for _, c := range a.challengers {
			if ev.t > c.fleet.Now() {
				c.fleet.AdvanceTo(ev.t)
			}
		}
	}
}

// applyAdmit replays one admission on one challenger: advance the
// replica clock to the VM's (already normalized) start, ask the
// challenger's policy for a placement, commit to the replica on
// success, and score the verdict against the champion's.
func (a *Arena) applyAdmit(c *challenger, it *AdmitOutcome, batch uint64) {
	fl := c.fleet
	if it.VM.Start > fl.Now() {
		fl.AdvanceTo(it.VM.Start)
	}
	c.decisions++
	serverID, start, reason := 0, it.VM.Start, ""
	idx, err := c.policy.Place(fl.View(), it.VM)
	if err == nil {
		var s int
		if s, err = fl.Commit(idx, it.VM); err == nil {
			serverID = a.cfg.Servers[idx].ID
			start = s
		}
	}
	if err != nil {
		c.rejections++
		reason = err.Error()
	}
	divergent := serverID != it.Server
	if divergent {
		c.divergences++
	}
	if a.cfg.Recorder != nil {
		a.cfg.Recorder.Record(obs.Decision{
			RequestID: it.RequestID,
			Batch:     batch,
			Op:        obs.OpShadow,
			VM:        it.VM.ID,
			Server:    serverID,
			Start:     start,
			End:       it.VM.End,
			Clock:     fl.Now(),
			Reason:    reason,
			Policy:    c.name,
			Champion:  it.Server,
			Divergent: divergent,
		})
	}
}

// Reports returns every challenger's scoreboard (sorted by name) and
// the arena-wide stats. The counterfactual energy is read directly from
// each replica fleet at its own clock — the number is the replica's,
// not a re-derivation.
func (a *Arena) Reports() ([]Report, Stats) {
	if a == nil {
		return nil, Stats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	reports := make([]Report, 0, len(a.challengers))
	for _, c := range a.challengers {
		fl := c.fleet
		reports = append(reports, Report{
			Name:               c.name,
			Policy:             c.policy.Name(),
			Decisions:          c.decisions,
			Divergences:        c.divergences,
			Rejections:         c.rejections,
			ChampionRejections: a.championRejections,
			EnergyWattMinutes:  fl.EnergyAt(fl.Now()).Total(),
			Residents:          len(fl.Residents()),
			Clock:              fl.Now(),
		})
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].Name < reports[j].Name })
	return reports, Stats{
		Batches:    a.batches,
		Events:     a.events.Load(),
		Dropped:    a.dropped.Load(),
		QueueDepth: len(a.ch),
	}
}

// WriteMetrics appends the vmalloc_arena_* Prometheus text families to
// w: arena-wide event counters plus per-challenger labeled series. Safe
// on a nil arena (writes nothing).
func (a *Arena) WriteMetrics(w io.Writer) {
	if a == nil {
		return
	}
	reports, stats := a.Reports()
	obs.Counter(w, "vmalloc_arena_batches_total", "Admission batches applied to the challenger replicas.", stats.Batches)
	obs.Counter(w, "vmalloc_arena_events_total", "Events accepted into the arena queue.", stats.Events)
	obs.Counter(w, "vmalloc_arena_dropped_events_total", "Events dropped because the arena queue was full.", stats.Dropped)
	obs.Gauge(w, "vmalloc_arena_queue_depth", "Queued, unapplied arena events.", stats.QueueDepth)
	obs.Counter(w, "vmalloc_arena_champion_rejections_total", "Admissions the champion rejected among arena-scored decisions.", a.championRejectionsSnapshot())
	if len(reports) == 0 {
		return
	}
	perPolicy(w, reports, "vmalloc_arena_decisions_total", "Admissions scored by this challenger.", "counter",
		func(r *Report) uint64 { return r.Decisions })
	perPolicy(w, reports, "vmalloc_arena_divergences_total", "Challenger decisions that diverged from the champion's placement.", "counter",
		func(r *Report) uint64 { return r.Divergences })
	perPolicy(w, reports, "vmalloc_arena_rejections_total", "Admissions this challenger rejected.", "counter",
		func(r *Report) uint64 { return r.Rejections })
	perPolicy(w, reports, "vmalloc_arena_energy_watt_minutes", "Counterfactual energy integral of the challenger's replica fleet.", "gauge",
		func(r *Report) float64 { return r.EnergyWattMinutes })
	perPolicy(w, reports, "vmalloc_arena_residents", "Resident VMs on the challenger's replica fleet.", "gauge",
		func(r *Report) int { return r.Residents })
	perPolicy(w, reports, "vmalloc_arena_clock_minutes", "Replica fleet clock, in fleet minutes.", "gauge",
		func(r *Report) int { return r.Clock })
}

// perPolicy writes one family with a sample per challenger, labelled by
// its registration name.
func perPolicy[N obs.Number](w io.Writer, reports []Report, name, help, typ string, value func(*Report) N) {
	obs.Declare(w, name, help, typ)
	for i := range reports {
		obs.Sample(w, name, value(&reports[i]), "policy", reports[i].Name)
	}
}

func (a *Arena) championRejectionsSnapshot() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.championRejections
}
