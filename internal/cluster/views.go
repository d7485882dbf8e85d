package cluster

import (
	"vmalloc/internal/api"
	"vmalloc/internal/obs"
)

// Now returns the current fleet clock, in minutes.
func (c *Cluster) Now() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fleet.Now()
}

// Telemetry returns the sinks the cluster was opened with (Config.Recorder,
// Config.Spans, Config.Energy); each is nil when unset. The HTTP edge
// serves its debug routes and /metrics families from them.
func (c *Cluster) Telemetry() (*obs.FlightRecorder, *obs.SpanStore, *obs.EnergyRecorder) {
	return c.cfg.Recorder, c.cfg.Spans, c.cfg.Energy
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

// State returns a consistent snapshot of the cluster, exactly the durable
// state: a cluster restored from its journal serves a byte-identical
// state to the one that wrote it. Rejection counts are deliberately
// absent (rejections are not journaled); they live in the metrics.
func (c *Cluster) State() *api.StateResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stateLocked()
}

func (c *Cluster) stateLocked() *api.StateResponse {
	fv := c.fleet.View()
	st := &api.StateResponse{
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
		Servers:         make([]api.ServerState, fv.NumServers()),
		VMs:             c.fleet.Residents(),
	}
	st.TotalEnergy = st.Energy.Total()
	for i := range st.Servers {
		s := fv.Server(i)
		st.Servers[i] = api.ServerState{
			ID:    s.ID,
			Type:  s.Type,
			State: fv.StateOf(i).String(),
			VMs:   fv.Running(i),
		}
	}
	return st
}

// StateJSON returns the state in the canonical wire encoding
// (api.EncodeState): the exact bytes GET /v1/state serves.
func (c *Cluster) StateJSON() ([]byte, error) {
	return api.EncodeState(c.State())
}
