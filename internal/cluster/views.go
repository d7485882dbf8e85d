package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"vmalloc/internal/api"
	"vmalloc/internal/arena"
	"vmalloc/internal/energy"
	"vmalloc/internal/online"
)

// Now returns the current fleet clock, in minutes.
func (c *Cluster) Now() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fleet.Now()
}

// PolicyArena returns the configured shadow-policy arena, or nil when
// none is wired in.
func (c *Cluster) PolicyArena() *arena.Arena {
	return c.cfg.Arena
}

// PolicyName returns the champion placement policy's name.
func (c *Cluster) PolicyName() string {
	return c.policy.Name()
}

// Adopted returns the number of VMs adopted from other shards over the
// cluster's lifetime (journaled, so it replays).
func (c *Cluster) Adopted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fleet.Adopted()
}

// Migrations returns the cluster-lifetime migration count and a copy of
// the retained history (bounded, oldest first).
func (c *Cluster) Migrations() (int, []api.MigrationRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]api.MigrationRecord, len(c.migHistory))
	copy(out, c.migHistory)
	return c.fleet.Migrated(), out
}

// ServerState is one server's externally visible state.
type ServerState struct {
	ID    int    `json:"id"`
	Type  string `json:"type,omitempty"`
	State string `json:"state"`
	VMs   int    `json:"vms"`
}

// State is a consistent snapshot of the cluster, exactly the durable
// state: a cluster restored from its journal serves a byte-identical
// State to the one that wrote it. Rejection counts are deliberately
// absent (rejections are not journaled); they live in the metrics.
type State struct {
	Now         int    `json:"now"`
	Policy      string `json:"policy"`
	IdleTimeout int    `json:"idleTimeoutMinutes"`
	Admitted    int    `json:"admitted"`
	Released    int    `json:"released"`
	// Migrations counts live migrations over the cluster lifetime and
	// MigrationSaved sums the planner's net Eq. 17 saving estimates —
	// both journaled, so they replay byte-identically.
	Migrations      int              `json:"migrations"`
	MigrationSaved  float64          `json:"migrationSavedWattMinutes"`
	Transitions     int              `json:"transitions"`
	ServersUsed     int              `json:"serversUsed"`
	Energy          energy.Breakdown `json:"energy"`
	TotalEnergy     float64          `json:"totalEnergyWattMinutes"`
	TotalStartDelay int              `json:"totalStartDelayMinutes"`
	MaxStartDelay   int              `json:"maxStartDelayMinutes"`
	Servers         []ServerState    `json:"servers"`
	// VMs lists the resident VMs sorted by ID; PlacedVM.Server is the
	// server *index* in the configured list.
	VMs []online.PlacedVM `json:"vms"`
}

// State returns a consistent snapshot of the cluster.
func (c *Cluster) State() *State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stateLocked()
}

func (c *Cluster) stateLocked() *State {
	fv := c.fleet.View()
	st := &State{
		Now:             c.fleet.Now(),
		Policy:          c.policy.Name(),
		IdleTimeout:     c.cfg.IdleTimeout,
		Admitted:        c.fleet.Admitted(),
		Released:        c.fleet.Released(),
		Migrations:      c.fleet.Migrated(),
		MigrationSaved:  c.migSaved,
		Transitions:     c.fleet.Transitions(),
		ServersUsed:     c.fleet.ServersUsed(),
		Energy:          c.fleet.EnergyAt(c.fleet.Now()),
		TotalStartDelay: c.fleet.StartDelayTotal(),
		MaxStartDelay:   c.fleet.MaxStartDelay(),
		Servers:         make([]ServerState, fv.NumServers()),
		VMs:             c.fleet.Residents(),
	}
	st.TotalEnergy = st.Energy.Total()
	for i := range st.Servers {
		s := fv.Server(i)
		st.Servers[i] = ServerState{
			ID:    s.ID,
			Type:  s.Type,
			State: fv.StateOf(i).String(),
			VMs:   fv.Running(i),
		}
	}
	return st
}

// StateJSON returns the State as deterministic, indented JSON.
func (c *Cluster) StateJSON() ([]byte, error) {
	return marshalStateJSON(c.State())
}

func marshalStateJSON(st *State) ([]byte, error) {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// StateDigest returns the SHA-256 of StateJSON as a hex string — a
// compact, deterministic fingerprint of the durable state. Two clusters
// serve the same digest exactly when their States are byte-identical,
// which is what the load harness and the journal-replay tests compare
// across crashes and restarts.
func (c *Cluster) StateDigest() (string, error) {
	b, err := c.StateJSON()
	if err != nil {
		return "", err
	}
	return DigestBytes(b), nil
}

// DigestBytes is the fingerprint function behind StateDigest: hex SHA-256
// of the given bytes. Exported so HTTP layers and load harnesses can
// digest an already-marshalled state body identically.
func DigestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
