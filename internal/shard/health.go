package shard

import (
	"context"
	"io"
	"net/http"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/obs"
)

// probeInterval is the health-check cadence of a healthy shard. A failing
// shard backs off exponentially from here (doubling per consecutive
// failure, capped at 32×).
const probeInterval = time.Second

// maxBackoffProbes caps the probe backoff at probeInterval <<
// maxBackoffProbes (x32), so a long-dead shard is still noticed within
// ~half a minute of coming back.
const maxBackoffProbes = 5

// shardHealth is the gate's one record per shard. It lives on the routing
// generation beside the map that routes to the shard (topoState.health),
// and a swap hands a surviving shard's record to the next generation, so
// its verdict, backoff and proxy-error count persist. Its fields are
// guarded by Gate.mu.
type shardHealth struct {
	healthy   bool
	lastErr   string
	fails     int       // consecutive probe failures, drives backoff
	next      time.Time // earliest next probe
	proxyErrs uint64    // transport failures of proxied requests
}

// Run probes shard health until ctx is cancelled, starting with an
// immediate pass over every shard; later passes probe the shards whose
// backoff window has elapsed.
func (g *Gate) Run(ctx context.Context) {
	g.CheckNow(ctx)
	t := time.NewTicker(probeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.probe(ctx, g.due(time.Now()))
		}
	}
}

// CheckNow probes every shard once, ignoring backoff schedules. Used at
// startup and by tests that want a deterministic verdict.
func (g *Gate) CheckNow(ctx context.Context) { g.probe(ctx, g.topo.Load().active()) }

// due returns the shards whose next probe is at or before now.
func (g *Gate) due(now time.Time) []Shard {
	ts := g.topo.Load()
	var due []Shard
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, s := range ts.active() {
		if !now.Before(ts.health[s.Name].next) {
			due = append(due, s)
		}
	}
	return due
}

// probe GETs each shard's /healthz concurrently, marks it up or down, and
// returns once every probe has.
func (g *Gate) probe(ctx context.Context, shards []Shard) {
	Scatter(shards, func(_ int, s Shard) struct{} {
		ctx, cancel := context.WithTimeout(ctx, proxyTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.Addr+"/healthz", nil)
		if err == nil {
			_, _, err = api.Call(g.hc, req, 4<<10)
		}
		if err != nil {
			g.markDown(s.Name, err)
		} else {
			g.markUp(s.Name)
		}
		return struct{}{}
	})
}

// proxyFailed records a proxied request's transport failure: it is
// counted against the shard, which is marked down.
func (g *Gate) proxyFailed(name string, cause error) {
	if h := g.topo.Load().health[name]; h != nil {
		g.mu.Lock()
		h.proxyErrs++
		g.mu.Unlock()
	}
	g.markDown(name, cause)
}

// markDown records a failed probe or proxy attempt: the shard is
// unhealthy and its next probe backs off exponentially. A shard outside
// the current generation has no record and is ignored.
func (g *Gate) markDown(name string, cause error) {
	h := g.topo.Load().health[name]
	if h == nil {
		return
	}
	g.mu.Lock()
	wasHealthy := h.healthy
	h.healthy = false
	h.lastErr = cause.Error()
	if h.fails < maxBackoffProbes {
		h.fails++
	}
	h.next = time.Now().Add(probeInterval << h.fails)
	g.mu.Unlock()
	if wasHealthy && g.cfg.Logger != nil {
		g.cfg.Logger.Warn("shard down", "shard", name, "error", cause.Error())
	}
}

// markUp records a successful probe: the shard is healthy and back on
// the regular cadence.
func (g *Gate) markUp(name string) {
	h := g.topo.Load().health[name]
	if h == nil {
		return
	}
	g.mu.Lock()
	wasHealthy := h.healthy
	h.healthy = true
	h.lastErr = ""
	h.fails = 0
	h.next = time.Now().Add(probeInterval)
	g.mu.Unlock()
	if !wasHealthy && g.cfg.Logger != nil {
		g.cfg.Logger.Info("shard up", "shard", name)
	}
}

// health reports one shard's verdict and, when it is down, the most
// recent failure message. A shard the current generation does not know
// reads as down with no message.
func (g *Gate) health(name string) (bool, string) {
	h := g.topo.Load().health[name]
	if h == nil {
		return false, ""
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return h.healthy, h.lastErr
}

// writeHealthMetrics emits vmalloc_gate_shard_up and
// vmalloc_gate_proxy_errors_total for the active shards in configuration
// order.
func (g *Gate) writeHealthMetrics(w io.Writer) {
	ts := g.topo.Load()
	shards := ts.active()
	g.mu.Lock()
	defer g.mu.Unlock()
	name := "vmalloc_gate_shard_up"
	obs.Declare(w, name, "1 while the prober considers the shard healthy.", "gauge")
	for _, s := range shards {
		up := 0
		if ts.health[s.Name].healthy {
			up = 1
		}
		obs.Sample(w, name, up, "shard", s.Name)
	}
	name = "vmalloc_gate_proxy_errors_total"
	obs.Declare(w, name, "Transport-level proxy failures per shard.", "counter")
	for _, s := range shards {
		obs.Sample(w, name, ts.health[s.Name].proxyErrs, "shard", s.Name)
	}
}

// healthSnapshot returns every active shard's health in configuration
// order.
func (g *Gate) healthSnapshot(ts *topoState) []api.ShardHealth {
	shards := ts.active()
	out := make([]api.ShardHealth, 0, len(shards))
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, s := range shards {
		h := ts.health[s.Name]
		out = append(out, api.ShardHealth{Name: s.Name, Addr: s.Addr, Weight: s.Weight, Healthy: h.healthy, Error: h.lastErr})
	}
	return out
}
