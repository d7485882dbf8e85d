package shard

// This file is the scatter-gather core: pure functions over typed api
// values that split a request by owning shard and fold per-shard answers
// back into the one answer a single vmserve would have given. The Gate's
// handlers are its one caller; transport (proxy envelopes, health
// marking) stays with them, and nothing here does I/O beyond running the
// caller's function.

import (
	"fmt"
	"sort"
	"sync"

	"vmalloc/internal/api"
	"vmalloc/internal/obs"
)

// Scatter runs fn over every item concurrently and returns the results
// in item order. Callers capture the shard list from one topology
// snapshot and reuse it to label results, so a swap mid-request can
// never misalign results with names.
func Scatter[I, T any](items []I, fn func(i int, item I) T) []T {
	results := make([]T, len(items))
	var wg sync.WaitGroup
	for i, item := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = fn(i, item)
		}()
	}
	wg.Wait()
	return results
}

// AdmitGroup is one shard's share of an admission batch: Requests[j] is
// the batch's request number Indices[j].
type AdmitGroup struct {
	Shard    Shard
	Indices  []int
	Requests []api.AdmitRequest
}

// SplitAdmits groups a batch by owning shard, groups in the map's shard
// order and requests in batch order within each. Routing is by VM ID, so
// a request without one is an error naming its position.
func SplitAdmits(m *Map, reqs []api.AdmitRequest) ([]AdmitGroup, error) {
	byName := make(map[string]*AdmitGroup)
	for i, req := range reqs {
		if req.ID <= 0 {
			return nil, fmt.Errorf("request %d has no vm id: routing is by id, so every admission must carry an explicit one", i)
		}
		s := m.Assign(req.ID)
		g := byName[s.Name]
		if g == nil {
			g = &AdmitGroup{Shard: s}
			byName[s.Name] = g
		}
		g.Indices = append(g.Indices, i)
		g.Requests = append(g.Requests, req)
	}
	groups := make([]AdmitGroup, 0, len(byName))
	for _, s := range m.Shards() {
		if g := byName[s.Name]; g != nil {
			groups = append(groups, *g)
		}
	}
	return groups, nil
}

// JoinAdmits reassembles per-group responses (resps[k] answers
// groups[k]) into the batch's request order. A shard that answered with
// the wrong number of outcomes, or at any position for another VM than
// the one requested there (SplitAdmits saw every id), is an error naming it.
func JoinAdmits(groups []AdmitGroup, resps [][]api.AdmitResponse) ([]api.AdmitResponse, error) {
	n := 0
	for k, g := range groups {
		if len(resps[k]) != len(g.Indices) {
			return nil, fmt.Errorf("shard %s: %d responses for %d requests", g.Shard.Name, len(resps[k]), len(g.Indices))
		}
		n += len(g.Indices)
	}
	out := make([]api.AdmitResponse, n)
	for k, g := range groups {
		for j, i := range g.Indices {
			if got, want := resps[k][j].ID, g.Requests[j].ID; got != want {
				return nil, fmt.Errorf("shard %s: answer %d is for vm %d, its request was for vm %d", g.Shard.Name, j, got, want)
			}
			out[i] = resps[k][j]
		}
	}
	return out, nil
}

// MergeMigrations folds per-shard migration histories (parts[i] from
// shards[i]) into one: counts summed, records stamped with their shard
// and ordered by (time, shard, seq), the newest limit kept (0 keeps
// all).
func MergeMigrations(shards []Shard, parts []api.MigrationsResponse, limit int) api.MigrationsResponse {
	out := api.MigrationsResponse{Migrations: []api.MigrationRecord{}}
	for i, p := range parts {
		out.Count += p.Count
		out.Migrations = appendStamped(out.Migrations, shards[i].Name, p.Migrations)
	}
	sortMigrations(out.Migrations)
	if limit > 0 && len(out.Migrations) > limit {
		out.Migrations = out.Migrations[len(out.Migrations)-limit:]
	}
	return out
}

// MergeConsolidate folds per-shard consolidation passes into the
// fleet-wide outcome: donors, moves and savings summed, the slowest
// shard's clock, the first shard's policy (every shard ran the same
// request), and the shard-stamped move list in (time, shard, seq) order.
// Shards consolidate independently — a VM never crosses shards — so the
// per-shard passes compose into exactly the fleet-wide pass.
func MergeConsolidate(shards []Shard, parts []api.ConsolidateResponse) api.ConsolidateResponse {
	out := api.ConsolidateResponse{Moves: []api.MigrationRecord{}}
	for i, p := range parts {
		if i == 0 {
			out.Clock, out.Policy = p.Clock, p.Policy
		}
		out.Clock = min(out.Clock, p.Clock)
		out.Donors += p.Donors
		out.Executed += p.Executed
		out.EnergySavedWattMinutes += p.EnergySavedWattMinutes
		out.Moves = appendStamped(out.Moves, shards[i].Name, p.Moves)
	}
	sortMigrations(out.Moves)
	return out
}

// MergeClocks folds per-shard clock advances into the fleet's answer: the
// slowest shard's clock, which every shard has reached.
func MergeClocks(_ []Shard, parts []api.ClockResponse) api.ClockResponse {
	out := parts[0]
	for _, p := range parts[1:] {
		out.Now = min(out.Now, p.Now)
	}
	return out
}

// MergeEnergy folds per-shard energy series into the fleet view: each
// shard's series under its name, totals summed, the slowest shard's
// clock (up to which every series is complete).
func MergeEnergy(shards []Shard, parts []api.EnergyResponse) api.GateEnergyResponse {
	out := api.GateEnergyResponse{Now: parts[0].Now}
	for i, er := range parts {
		out.Now = min(out.Now, er.Now)
		out.TotalWattMinutes += er.TotalWattMinutes
		out.Shards = append(out.Shards, api.ShardEnergy{Shard: shards[i].Name, Energy: er})
	}
	return out
}

// MergeTraces regroups the caller's own spans plus every shard's traced
// spans into one tree per trace id.
func MergeTraces(own []obs.Span, parts []api.TracesResponse) api.TracesResponse {
	all := own
	for _, p := range parts {
		for _, t := range p.Traces {
			all = append(all, t.Spans...)
		}
	}
	return api.NewTracesResponse(all)
}

func appendStamped(dst []api.MigrationRecord, shard string, recs []api.MigrationRecord) []api.MigrationRecord {
	for _, m := range recs {
		m.Shard = shard
		dst = append(dst, m)
	}
	return dst
}

// sortMigrations orders a merged record list deterministically: by fleet
// minute, then owning shard, then journal sequence.
func sortMigrations(ms []api.MigrationRecord) {
	sort.SliceStable(ms, func(a, b int) bool {
		if ms[a].Time != ms[b].Time {
			return ms[a].Time < ms[b].Time
		}
		if ms[a].Shard != ms[b].Shard {
			return ms[a].Shard < ms[b].Shard
		}
		return ms[a].Seq < ms[b].Seq
	})
}
