package shard

// This file is the pure (non-HTTP) half of elastic topology: the
// conversion between Map and the versioned api.Topology wire type, the
// resize planner that diffs two topologies' assignment functions over
// the resident VM IDs, and the placement digest that fingerprints
// residency independently of how it was reached.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"

	"vmalloc/internal/api"
)

// FromTopology builds a Map from the versioned wire type, validating
// shard-set rules (unique non-empty names, non-empty URLs, finite
// non-negative weights) and stamping the topology's epoch (must be
// ≥ 1 — epoch 0 is reserved for unversioned maps). Trailing
// slashes on URLs are trimmed, mirroring ParseTargets.
func FromTopology(t api.Topology) (*Map, error) {
	if t.Epoch < 1 {
		return nil, fmt.Errorf("topology epoch %d, want ≥ 1", t.Epoch)
	}
	shards := make([]Shard, 0, len(t.Shards))
	for _, s := range t.Shards {
		shards = append(shards, Shard{
			Name:   s.Name,
			Addr:   trimAddr(s.URL),
			Weight: s.Weight,
		})
	}
	m, err := NewMap(shards)
	if err != nil {
		return nil, err
	}
	return m.WithEpoch(t.Epoch), nil
}

// LoadTopology reads and validates a topology.json file (the cmd/vmgate
// -topology flag).
func LoadTopology(path string) (*Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := api.DecodeTopology(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m, err := FromTopology(t)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// Topology returns the map as the versioned wire type, the exact shape
// GET /v1/topology echoes. Weights are materialised (never 0) so
// clients need not know the 0-means-1 normalisation.
func (m *Map) Topology() api.Topology {
	t := api.Topology{Epoch: m.epoch, Shards: make([]api.TopologyShard, len(m.shards))}
	for i, s := range m.shards {
		t.Shards[i] = api.TopologyShard{Name: s.Name, URL: s.Addr, Weight: s.Weight}
	}
	return t
}

// Move is one entry of a resize plan: a VM whose owner changes between
// two topologies.
type Move struct {
	ID   int
	From Shard // owner under the old topology
	To   Shard // owner under the new topology
}

// PlanMoves computes the remap diff between two topologies over the
// given resident VM IDs: the VMs whose owning shard differs, sorted by
// ID so the drain order (and every span and log line it produces) is
// deterministic. Thanks to rendezvous hashing the plan is exactly the
// keys won or lost by the changed shards — growing 2→3 never moves a
// VM between the two surviving shards.
func PlanMoves(old, next *Map, ids []int) []Move {
	moves := make([]Move, 0)
	for _, id := range ids {
		from, to := old.Assign(id), next.Assign(id)
		if from.Name != to.Name {
			moves = append(moves, Move{ID: id, From: from, To: to})
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].ID < moves[j].ID })
	return moves
}

// Placement is one resident VM's location and schedule, the unit of the
// placement digest.
type Placement struct {
	ID    int
	Shard string
	Start int // actual start minute
	End   int // residency end minute
	CPU   float64
	Mem   float64
}

// PlacementDigest fingerprints a deployment's residency: hex SHA-256
// over "id shard start end cpu mem\n" lines sorted by VM ID. It is
// deliberately blind to everything path-dependent — admitted/released
// counters, energy ledgers, server indexes — so a deployment that grew
// 2→3 shards mid-run and one that started at 3 digest identically iff
// they host the same VMs, on the same owners, on the same schedule.
func PlacementDigest(ps []Placement) string {
	sorted := make([]Placement, len(ps))
	copy(sorted, ps)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	h := sha256.New()
	for _, p := range sorted {
		fmt.Fprintf(h, "%d %s %d %d %g %g\n", p.ID, p.Shard, p.Start, p.End, p.CPU, p.Mem)
	}
	return hex.EncodeToString(h.Sum(nil))
}
