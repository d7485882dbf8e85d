// Package arena is the shadow-evaluation subsystem: it runs challenger
// placement policies against full counterfactual fleet replicas fed the
// same admission/release/clock stream as the live fleet, so that each
// challenger's energy, rejection count and placement-divergence rate
// are true counterfactuals — the numbers that fleet *would* have
// produced had it been the champion — rather than single-decision
// scores.
//
// Replica semantics: every challenger owns a private online.Fleet built
// from the same server catalog and idle timeout as the live cluster. The
// cluster steps every replica with each processed micro-batch
// (post-normalization, in commit order), each successful release, and
// each clock advance, under the lock it already holds for the live
// mutation — except that placement decisions are the challenger's own: a
// challenger may accept a VM the champion rejected, place it elsewhere,
// or reject one the champion accepted, and from that point its replica's
// occupancy, transitions and energy integral evolve independently.
//
// The arena has no lock, queue or goroutine of its own: its caller
// serialises every call. No event is dropped, and a replica's clock is
// the live clock whenever the caller's lock is free. The arena reads
// nothing of the live fleet and writes nothing to it, so a live placement
// and the state digest are the same with or without it.
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
	"sort"

	"vmalloc/internal/model"
	"vmalloc/internal/obs"
	"vmalloc/internal/online"
)

// Challenger is one shadow policy: Name labels its reports, metrics and
// decisions (unique within an arena), Policy places VMs on its replica.
type Challenger struct {
	Name   string
	Policy online.Policy
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
	// Name is the challenger's name (Challenger.Name).
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

type challenger struct {
	name        string
	policy      online.Policy
	fleet       *online.Fleet
	decisions   uint64
	divergences uint64
	rejections  uint64
}

// Arena owns the challenger replicas. It is not safe for concurrent use:
// the cluster calls it only under its own lock. A nil *Arena is a valid
// no-op target for every method.
type Arena struct {
	servers            []model.Server
	rec                *obs.FlightRecorder
	challengers        []*challenger
	batches            uint64
	championRejections uint64
}

// New returns an arena with one fresh replica of servers per challenger.
// rec, when non-nil, receives one OpShadow decision per challenger per
// admission. A challenger with an empty or repeated name, or a nil
// policy, is refused.
func New(servers []model.Server, idleTimeout int, rec *obs.FlightRecorder, challengers []Challenger) (*Arena, error) {
	a := &Arena{servers: servers, rec: rec}
	seen := map[string]bool{}
	for _, c := range challengers {
		switch {
		case c.Name == "":
			return nil, errors.New("arena: challenger name must not be empty")
		case c.Policy == nil:
			return nil, fmt.Errorf("arena: challenger %q has no policy", c.Name)
		case seen[c.Name]:
			return nil, fmt.Errorf("arena: challenger %q named twice", c.Name)
		}
		seen[c.Name] = true
		a.challengers = append(a.challengers, &challenger{
			name:   c.Name,
			policy: c.Policy,
			fleet:  online.NewFleet(servers, idleTimeout),
		})
	}
	return a, nil
}

// Batch replays one processed admission batch on every replica: the
// champion's outcomes in commit order, post-normalization.
func (a *Arena) Batch(batch uint64, items []AdmitOutcome) {
	if a == nil || len(items) == 0 {
		return
	}
	a.batches++
	for i := range items {
		it := &items[i]
		if !it.Accepted {
			a.championRejections++
		}
		for _, c := range a.challengers {
			a.admit(c, it, batch)
		}
	}
}

// Release replays one successful early release at fleet minute t.
func (a *Arena) Release(t, id int) {
	if a == nil {
		return
	}
	for _, c := range a.challengers {
		c.advance(t)
		if _, ok := c.fleet.Resident(id); ok {
			c.fleet.Release(id) //nolint:errcheck // resident: cannot fail
		}
	}
}

// Tick replays a clock advance to fleet minute t.
func (a *Arena) Tick(t int) {
	if a == nil {
		return
	}
	for _, c := range a.challengers {
		c.advance(t)
	}
}

func (c *challenger) advance(t int) {
	if t > c.fleet.Now() {
		c.fleet.AdvanceTo(t)
	}
}

// admit replays one admission on one challenger: advance the replica
// clock to the VM's (already normalized) start, ask the challenger's
// policy for a placement, commit to the replica on success, and score
// the verdict against the champion's.
func (a *Arena) admit(c *challenger, it *AdmitOutcome, batch uint64) {
	fl := c.fleet
	c.advance(it.VM.Start)
	c.decisions++
	serverID, start, reason := 0, it.VM.Start, ""
	idx, err := c.policy.Place(fl.View(), it.VM)
	if err == nil {
		var s int
		if s, err = fl.Commit(idx, it.VM); err == nil {
			serverID = a.servers[idx].ID
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
	if a.rec != nil {
		a.rec.Record(obs.Decision{
			RequestID: it.RequestID,
			Batch:     batch,
			Op:        obs.OpShadow,
			VM:        it.VM.ID,
			Server:    serverID,
			Start:     start,
			End:       start + it.VM.Duration() - 1,
			Clock:     fl.Now(),
			Reason:    reason,
			Policy:    c.name,
			Champion:  it.Server,
			Divergent: divergent,
		})
	}
}

// Batches counts the admission batches replayed on the replicas.
func (a *Arena) Batches() uint64 {
	if a == nil {
		return 0
	}
	return a.batches
}

// Reports returns every challenger's scoreboard, sorted by name. The
// counterfactual energy is read directly from each replica fleet at its
// own clock — the number is the replica's, not a re-derivation.
func (a *Arena) Reports() []Report {
	if a == nil {
		return nil
	}
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
	return reports
}

// WriteMetrics appends the vmalloc_arena_* Prometheus text families to
// w: arena-wide counters plus per-challenger labeled series. Safe on a
// nil arena (writes nothing).
func (a *Arena) WriteMetrics(w io.Writer) {
	if a == nil {
		return
	}
	obs.Counter(w, "vmalloc_arena_batches_total", "Admission batches applied to the challenger replicas.", a.batches)
	obs.Counter(w, "vmalloc_arena_champion_rejections_total", "Admissions the champion rejected among arena-scored decisions.", a.championRejections)
	reports := a.Reports()
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
// its name.
func perPolicy[N obs.Number](w io.Writer, reports []Report, name, help, typ string, value func(*Report) N) {
	obs.Declare(w, name, help, typ)
	for i := range reports {
		obs.Sample(w, name, value(&reports[i]), "policy", reports[i].Name)
	}
}
