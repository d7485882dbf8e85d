package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"vmalloc"
	"vmalloc/internal/api"
)

// probeRebalance grows a loaded three-shard deployment to four through the
// gate's POST /v1/topology and times the drain: how many remapped VMs a
// second the rebalancer moves to their new owner. It runs after the traced
// phase, on daemons of its own.
func probeRebalance(env *runEnv, res *result) error {
	inst, err := vmalloc.Generate(vmalloc.WorkloadSpec{
		NumVMs: 1500 / env.scale, MeanInterArrival: 0.001, MeanLength: 500,
		Classes: []vmalloc.VMClass{vmalloc.ClassStandard},
	}, vmalloc.FleetSpec{NumServers: 512, TransitionTime: 2}, env.seed)
	if err != nil {
		return err
	}
	spec := &serviceSpec{shards: 3, serve: func(dir string) serveOpts { return serveOpts{journal: dir, noFsync: true} }}
	// The fourth quarter of the fleet is the joining shard's.
	dep, err := deploy(env, spec, inst.Servers[:384], filepath.Join(env.tmp, "rebalance"), variant{})
	if err != nil {
		return err
	}
	defer dep.kill()
	joiner, err := startServe(env, "s3", inst.Servers[384:], serveOpts{journal: filepath.Join(env.tmp, "rebalance", "journal-s3"), noFsync: true})
	if err != nil {
		return err
	}
	defer joiner.kill()

	c := newClient(dep.front.url, env.conns, nil)
	defer c.close()
	led := newLedger(append(dep.fleets, inst.Servers[384:]))
	sch := buildSchedule(inst, 0, env.seed)
	s := &session{ctx: env.ctx, c: c, led: led, rec: &recorder{}, rd: &round{}, conns: env.conns, gate: true, names: dep.names}
	for i := range sch.steps {
		s.play(&sch.steps[i])
	}

	topo := api.Topology{Epoch: 2}
	for _, d := range append(dep.shards, joiner) {
		topo.Shards = append(topo.Shards, api.TopologyShard{Name: d.name, URL: d.url})
	}
	body, err := json.Marshal(topo)
	if err != nil {
		return err
	}
	t0 := time.Now()
	led.noteOp("topology change", c.do(env.ctx, "topology", http.MethodPost, "/v1/topology", body))
	var st api.TopologyResponse
	for {
		if err := env.ctx.Err(); err != nil {
			return err
		}
		r := c.do(env.ctx, "topology", http.MethodGet, "/v1/topology", nil)
		if r.failed() {
			return fmt.Errorf("poll /v1/topology: %s", r.describe())
		}
		if err := json.Unmarshal(r.body, &st); err != nil {
			return fmt.Errorf("decode /v1/topology: %w", err)
		}
		if !st.Rebalance.Active {
			break
		}
		if time.Since(t0) > time.Minute {
			return fmt.Errorf("rebalance still draining after a minute: %+v", st.Rebalance)
		}
		time.Sleep(2 * time.Millisecond)
	}
	elapsed := time.Since(t0)
	if st.Rebalance.Failed > 0 {
		led.failf(st.Rebalance.Failed, "rebalance: %d moves failed: %s", st.Rebalance.Failed, st.Rebalance.LastError)
	}
	// Every VM is still resident exactly once, now across four shards.
	names := map[string]int{joiner.name: 3}
	for k, v := range dep.names {
		names[k] = v
	}
	view, r := c.state(env.ctx, true, names)
	led.noteOp("state read", r)
	if view != nil {
		seen := map[int]int{}
		for _, o := range view.residents {
			seen[o.id]++
		}
		for id := range led.mustBeResident(view.now) {
			if seen[id] != 1 {
				led.failf(1, "after the rebalance vm %d is resident %d times", id, seen[id])
			}
		}
	}
	res.absorb(led)
	if st.Rebalance.Moved > 0 {
		res.layer["shard.rebalance_drain_vms_per_s"] = float64(st.Rebalance.Moved) / elapsed.Seconds()
	}
	res.notef("rebalance 3→4: %d planned, %d moved, %d skipped in %.2fs", st.Rebalance.Planned, st.Rebalance.Moved, st.Rebalance.Skipped, elapsed.Seconds())
	return nil
}
