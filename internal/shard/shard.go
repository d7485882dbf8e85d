// Package shard implements the vmgate routing layer: a deterministic
// VM-ID→shard map (rendezvous hashing), per-shard health probing with
// backoff, and a stateless HTTP gate that fronts several vmserve shards
// while speaking the same internal/api wire contract on both sides.
//
// The gate holds no durable state of its own — every fact lives on some
// shard — so any number of gates can front the same shard set, and a
// gate restart loses nothing. The routing function is pure: the same
// (shard set, VM ID) pair always yields the same shard, across gates
// and across restarts, which is what makes admission retries through a
// gate land on the shard that already holds the VM.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"slices"
	"strings"
)

// Shard is one vmserve backend: a stable routing name and the base URL
// it serves on. The name, not the address, is the routing identity —
// moving a shard to a new address keeps its key range; renaming it
// remaps everything.
type Shard struct {
	Name string
	Addr string
	// Weight scales the shard's expected share of the key space relative
	// to its peers (heterogeneous capacity): a weight-2 shard owns about
	// twice the keys of a weight-1 one. 0 means 1; negative is a
	// construction error. Changing only weights moves keys exclusively
	// between shards whose share grew and ones whose share shrank — a
	// shard whose relative score order did not change keeps its keys.
	Weight float64
}

// Map is an immutable set of shards with a deterministic VM-ID→shard
// assignment. Immutability is the point: a Map is built once from a
// topology (startup configuration or an accepted POST /v1/topology), and
// every routing decision over its lifetime is a pure function of
// (shard names, weights, VM ID). The epoch versions the topology: a
// request fenced on a lower epoch than the serving side's is stale.
type Map struct {
	shards []Shard
	epoch  int64
	// uniform short-circuits Assign onto the integer hash order when all
	// weights are equal — bit-identical to the historical unweighted map,
	// which is what keeps the golden assignment pins (and every resident
	// VM's routing) valid across the weighted upgrade.
	uniform bool
}

// NewMap builds a Map over the given shards at epoch 0 (unversioned).
// Names must be non-empty and unique, addresses non-empty, weights
// non-negative (0 normalises to 1); order does not affect routing
// (assignment depends only on the name and weight sets) but is preserved
// for display and scatter-gather ordering.
func NewMap(shards []Shard) (*Map, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard map needs at least one shard")
	}
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if s.Name == "" {
			return nil, fmt.Errorf("shard with empty name (addr %q)", s.Addr)
		}
		if s.Addr == "" {
			return nil, fmt.Errorf("shard %q has an empty address", s.Name)
		}
		if s.Weight < 0 || math.IsNaN(s.Weight) || math.IsInf(s.Weight, 0) {
			return nil, fmt.Errorf("shard %q has weight %v, want a finite weight ≥ 0 (0 means 1)", s.Name, s.Weight)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("duplicate shard name %q", s.Name)
		}
		seen[s.Name] = true
	}
	m := &Map{shards: make([]Shard, len(shards)), uniform: true}
	copy(m.shards, shards)
	for i := range m.shards {
		if m.shards[i].Weight == 0 {
			m.shards[i].Weight = 1
		}
		if m.shards[i].Weight != m.shards[0].Weight {
			m.uniform = false
		}
	}
	return m, nil
}

// WithEpoch returns a copy of the map stamped with the given topology
// epoch. Routing is unaffected — the epoch only versions the shard set
// for fencing.
func (m *Map) WithEpoch(epoch int64) *Map {
	out := *m
	out.shards = make([]Shard, len(m.shards))
	copy(out.shards, m.shards)
	out.epoch = epoch
	return &out
}

// Epoch returns the map's topology epoch (0 for unversioned maps: a
// bare NewMap or ParseTargets, as vmload -addr name=url builds).
func (m *Map) Epoch() int64 { return m.epoch }

// ParseTargets builds a Map from "name=url" strings (the repeatable
// -addr flag of cmd/vmload). A bare URL with no '=' gets a generated
// name ("shard0", "shard1", …) — convenient for throwaway setups, but
// note the generated name depends on flag order.
func ParseTargets(targets []string) (*Map, error) {
	shards := make([]Shard, 0, len(targets))
	for i, t := range targets {
		name, addr, ok := strings.Cut(t, "=")
		if !ok {
			name, addr = fmt.Sprintf("shard%d", i), t
		}
		shards = append(shards, Shard{Name: strings.TrimSpace(name), Addr: trimAddr(addr)})
	}
	return NewMap(shards)
}

// trimAddr normalises a shard base URL: surrounding space and trailing
// slashes dropped, so route concatenation never doubles a '/'.
func trimAddr(addr string) string {
	return strings.TrimRight(strings.TrimSpace(addr), "/")
}

// Shards returns the shards in configuration order.
func (m *Map) Shards() []Shard {
	out := make([]Shard, len(m.shards))
	copy(out, m.shards)
	return out
}

// Len returns the number of shards.
func (m *Map) Len() int { return len(m.shards) }

// ByName returns the shard with the given name.
func (m *Map) ByName(name string) (Shard, bool) {
	for _, s := range m.shards {
		if s.Name == name {
			return s, true
		}
	}
	return Shard{}, false
}

// Assign routes a VM ID to its owning shard by weighted rendezvous
// (highest random weight) hashing: every shard scores the ID and the
// highest score wins. Unlike modulo hashing, adding or removing one
// shard remaps only the keys that shard wins or held — every other ID
// keeps its assignment, so a shard-set change never shuffles the whole
// cluster's residency.
//
// Uniform maps (all weights equal — every pre-weight map) compare the
// raw 64-bit hashes, bit-identical to the historical assignment.
// Non-uniform maps compare -weight/ln(u) where u ∈ (0,1) is the hash
// mapped to the unit interval: the expected share of wins is
// proportional to the weight, and because the per-shard float score is
// a monotone function of that shard's raw hash, the relative order of
// any two shards whose weights did not change is the same in both
// paths — which is the remap-scope property across weight changes.
// Float ties (possible only after the 64→53-bit mantissa truncation)
// fall back to the raw hash, then the name, so the two paths agree
// exactly whenever weights are equal.
func (m *Map) Assign(id int) Shard {
	best := m.shards[0]
	bestH := score(best.Name, id)
	if m.uniform {
		for _, s := range m.shards[1:] {
			h := score(s.Name, id)
			if h > bestH || (h == bestH && s.Name < best.Name) {
				best, bestH = s, h
			}
		}
		return best
	}
	bestScore := weightedScore(bestH, best.Weight)
	for _, s := range m.shards[1:] {
		h := score(s.Name, id)
		sc := weightedScore(h, s.Weight)
		if sc > bestScore || (sc == bestScore && (h > bestH || (h == bestH && s.Name < best.Name))) {
			best, bestH, bestScore = s, h, sc
		}
	}
	return best
}

// weightedScore maps the 64-bit rendezvous hash onto (0,1) and returns
// the classic weighted-rendezvous score -w/ln(u). Keeping only the top
// 53 bits of the hash makes the u computation exact in float64 (no
// rounding, u strictly inside (0,1)), and the truncated low bits still
// break ties via the raw hash in Assign.
func weightedScore(h uint64, w float64) float64 {
	u := (float64(h>>11) + 0.5) / (1 << 53)
	return -w / math.Log(u)
}

// score is the rendezvous weight of (shard, id): FNV-1a 64 over the
// shard name, a NUL separator, and the ID's big-endian bytes, pushed
// through a 64-bit avalanche finalizer. The finalizer matters: raw
// FNV-1a barely diffuses a trailing one-byte change, so without it the
// per-name hashes differ by ~2^60 while per-ID deltas stay tiny and one
// shard wins every comparison.
func score(name string, id int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	h.Write(b[:])
	return mix64(h.Sum64())
}

// mix64 is the MurmurHash3 fmix64 finalizer: a bijective full-avalanche
// mix, so every input bit flips about half the output bits.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// CombineDigests folds per-shard state digests into one deployment
// fingerprint: hex SHA-256 over "name<space>digest\n" lines sorted by
// shard name. Sorting makes it independent of gather order, and the
// line format keeps it shell-reproducible:
//
//	printf 'a %s\nb %s\n' "$da" "$db" | sha256sum
//
// matches CombineDigests(map[string]string{"a": da, "b": db}).
func CombineDigests(digests map[string]string) string {
	h := sha256.New()
	for _, n := range slices.Sorted(maps.Keys(digests)) {
		fmt.Fprintf(h, "%s %s\n", n, digests[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}
