// Package search improves completed placements by local search: starting
// from any feasible placement (typically the MinCost heuristic's), it
// explores single-VM relocations and pairwise swaps, accepting moves that
// lower the exact Eq. 7 energy. It closes part of the gap between the
// paper's greedy heuristic and the ILP optimum at a cost the greedy pass
// avoids — the offline counterpart of migration-based consolidation, with
// zero migration cost because nothing has run yet.
package search

import (
	"fmt"
	"math/rand"

	"vmalloc/internal/energy"
	"vmalloc/internal/ilp"
	"vmalloc/internal/model"
)

// Improver configures the local search.
type Improver struct {
	// Seed drives the randomised move order.
	Seed int64
	// MaxRounds caps full passes over the VM set; 0 means DefaultRounds.
	MaxRounds int
	// DisableSwaps restricts the neighbourhood to single relocations.
	DisableSwaps bool
}

// DefaultRounds bounds the search; each round is a full first-improvement
// sweep, and the search stops early once a sweep finds nothing.
const DefaultRounds = 20

// Stats reports the work done.
type Stats struct {
	Rounds      int     `json:"rounds"`
	Relocations int     `json:"relocations"`
	Swaps       int     `json:"swaps"`
	Start       float64 `json:"startEnergyWattMinutes"`
	Final       float64 `json:"finalEnergyWattMinutes"`
}

type state struct {
	inst   model.Instance
	srvIdx map[int]int // server ID -> index
	perSrv [][]model.VM
	cost   []float64 // Eq. 17 energy of each server's VM set
	place  map[int]int
}

// Improve runs the search and returns the improved placement with its
// energy. The input placement is not modified; it must be feasible.
func (im *Improver) Improve(inst model.Instance, placement map[int]int) (map[int]int, float64, Stats, error) {
	if err := inst.Validate(); err != nil {
		return nil, 0, Stats{}, err
	}
	st, err := newState(inst, placement)
	if err != nil {
		return nil, 0, Stats{}, err
	}
	rounds := im.MaxRounds
	if rounds <= 0 {
		rounds = DefaultRounds
	}
	rng := rand.New(rand.NewSource(im.Seed))
	stats := Stats{Start: st.total()}
	order := make([]int, len(inst.VMs))
	for i := range order {
		order[i] = i
	}
	for round := 0; round < rounds; round++ {
		stats.Rounds++
		improved := false
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, vi := range order {
			v := inst.VMs[vi]
			if st.tryRelocate(v) {
				stats.Relocations++
				improved = true
				continue
			}
			if !im.DisableSwaps && st.trySwap(v, rng) {
				stats.Swaps++
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	stats.Final = st.total()
	return st.place, stats.Final, stats, nil
}

func newState(inst model.Instance, placement map[int]int) (*state, error) {
	perSrv, err := inst.ByServer(placement)
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	st := &state{
		inst:   inst,
		srvIdx: make(map[int]int, len(inst.Servers)),
		perSrv: perSrv,
		cost:   make([]float64, len(inst.Servers)),
		place:  make(map[int]int, len(placement)),
	}
	for i, s := range inst.Servers {
		if err := ilp.CheckServer(s, perSrv[i]); err != nil {
			return nil, fmt.Errorf("search: input placement infeasible: %w", err)
		}
		st.srvIdx[s.ID] = i
		st.cost[i] = energy.EvaluateServer(s, perSrv[i]).Total()
		for _, v := range perSrv[i] {
			st.place[v.ID] = s.ID
		}
	}
	return st, nil
}

func (st *state) total() float64 {
	var sum float64
	for _, c := range st.cost {
		sum += c
	}
	return sum
}

// tryRelocate moves v to the best strictly-improving server, if any.
func (st *state) tryRelocate(v model.VM) bool {
	src := st.srvIdx[st.place[v.ID]]
	srcWithout := remove(st.perSrv[src], v.ID)
	srcNew := energy.EvaluateServer(st.inst.Servers[src], srcWithout).Total()
	bestDst, bestDelta, bestCost := -1, -1e-9, 0.0
	for dst := range st.inst.Servers {
		if dst == src {
			continue
		}
		s := st.inst.Servers[dst]
		if !ilp.Fits(s, st.perSrv[dst], v) {
			continue
		}
		dstNew := energy.EvaluateServer(s, append(st.perSrv[dst], v)).Total()
		delta := (srcNew + dstNew) - (st.cost[src] + st.cost[dst])
		if delta < bestDelta {
			bestDst, bestDelta, bestCost = dst, delta, dstNew
		}
	}
	if bestDst < 0 {
		return false
	}
	st.perSrv[src] = srcWithout
	st.cost[src] = srcNew
	st.perSrv[bestDst] = append(st.perSrv[bestDst], v)
	st.cost[bestDst] = bestCost
	st.place[v.ID] = st.inst.Servers[bestDst].ID
	return true
}

// trySwap exchanges v with one random co-schedulable VM on another server
// when the exchange strictly improves.
func (st *state) trySwap(v model.VM, rng *rand.Rand) bool {
	src := st.srvIdx[st.place[v.ID]]
	dst := rng.Intn(len(st.inst.Servers))
	if dst == src || len(st.perSrv[dst]) == 0 {
		return false
	}
	other := st.perSrv[dst][rng.Intn(len(st.perSrv[dst]))]
	srcS, dstS := st.inst.Servers[src], st.inst.Servers[dst]
	srcSwapped := append(remove(st.perSrv[src], v.ID), other)
	dstSwapped := append(remove(st.perSrv[dst], other.ID), v)
	if ilp.CheckServer(srcS, srcSwapped) != nil || ilp.CheckServer(dstS, dstSwapped) != nil {
		return false
	}
	srcNew := energy.EvaluateServer(srcS, srcSwapped).Total()
	dstNew := energy.EvaluateServer(dstS, dstSwapped).Total()
	if (srcNew+dstNew)-(st.cost[src]+st.cost[dst]) >= -1e-9 {
		return false
	}
	st.perSrv[src], st.cost[src] = srcSwapped, srcNew
	st.perSrv[dst], st.cost[dst] = dstSwapped, dstNew
	st.place[v.ID] = dstS.ID
	st.place[other.ID] = srcS.ID
	return true
}

func remove(vms []model.VM, id int) []model.VM {
	out := make([]model.VM, 0, len(vms)-1)
	for _, v := range vms {
		if v.ID != id {
			out = append(out, v)
		}
	}
	return out
}
