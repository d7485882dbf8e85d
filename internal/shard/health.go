package shard

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/obs"
)

// DefaultProbeInterval is the per-shard health-check cadence when
// ProberConfig.Interval is 0.
const DefaultProbeInterval = time.Second

// maxBackoffProbes caps the probe backoff at Interval << maxBackoffProbes
// (x32), so a long-dead shard is still noticed within ~half a minute of
// coming back at the default cadence.
const maxBackoffProbes = 5

// ProberConfig configures a Prober. The zero value works.
type ProberConfig struct {
	// Interval between probes of a healthy shard; 0 means
	// DefaultProbeInterval. Failing shards back off exponentially from
	// here (doubling per consecutive failure, capped at 32×).
	Interval time.Duration
	// Timeout for one probe request; 0 means Interval (min 1s).
	Timeout time.Duration
	// Client issues the probes; nil means http.DefaultClient.
	Client *http.Client
	// Logger gets one line per health transition; nil discards.
	Logger *slog.Logger
}

// Prober is the gate's one per-shard record. It tracks each shard's
// health by polling its /healthz and by counting the gate's failed proxy
// attempts, each of which marks the shard down at once (the data path is
// the freshest probe there is). Safe for concurrent use.
type Prober struct {
	cfg    ProberConfig
	shards []Shard

	mu    sync.Mutex
	state map[string]*shardHealth
}

type shardHealth struct {
	healthy   bool
	lastErr   string
	fails     int       // consecutive probe failures, drives backoff
	next      time.Time // earliest next probe
	proxyErrs uint64    // transport failures of proxied requests
}

// NewProber builds a prober over the map's shards. All shards start
// healthy-until-proven-otherwise so a gate serves immediately; the
// first probe pass (Run's first tick, or an explicit CheckNow) replaces
// optimism with verdicts.
func NewProber(m *Map, cfg ProberConfig) *Prober {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultProbeInterval
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = max(cfg.Interval, time.Second)
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	p := &Prober{
		cfg:    cfg,
		shards: m.Shards(),
		state:  make(map[string]*shardHealth, m.Len()),
	}
	for _, s := range p.shards {
		p.state[s.Name] = &shardHealth{healthy: true}
	}
	return p
}

// SetShards replaces the probed shard set — called at a topology swap
// (once with the union of old and new shards when the transition window
// opens, once with the new set alone when it closes). Surviving shards
// keep their health state and backoff schedule; joining shards start
// healthy-until-proven-otherwise, exactly like at construction.
func (p *Prober) SetShards(shards []Shard) {
	p.mu.Lock()
	defer p.mu.Unlock()
	state := make(map[string]*shardHealth, len(shards))
	for _, s := range shards {
		if st, ok := p.state[s.Name]; ok {
			state[s.Name] = st
		} else {
			state[s.Name] = &shardHealth{healthy: true}
		}
	}
	p.shards = append([]Shard(nil), shards...)
	p.state = state
}

// snapshotShards copies the probed shard list under the lock, so probe
// loops iterate a stable set even while SetShards swaps it.
func (p *Prober) snapshotShards() []Shard {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Shard(nil), p.shards...)
}

// Run probes until ctx is cancelled, starting with an immediate pass.
func (p *Prober) Run(ctx context.Context) {
	p.CheckNow(ctx)
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.checkDue(ctx, time.Now())
		}
	}
}

// CheckNow probes every shard once, ignoring backoff schedules. Used at
// startup and by tests that want a deterministic verdict.
func (p *Prober) CheckNow(ctx context.Context) {
	p.probeAll(ctx, p.snapshotShards())
}

// checkDue probes the shards whose backoff window has elapsed.
func (p *Prober) checkDue(ctx context.Context, now time.Time) {
	var due []Shard
	p.mu.Lock()
	for _, s := range p.shards {
		if st := p.state[s.Name]; st != nil && !now.Before(st.next) {
			due = append(due, s)
		}
	}
	p.mu.Unlock()
	p.probeAll(ctx, due)
}

// probeAll probes shards concurrently and returns once every probe has.
func (p *Prober) probeAll(ctx context.Context, shards []Shard) {
	Scatter(shards, func(_ int, s Shard) struct{} {
		p.probe(ctx, s)
		return struct{}{}
	})
}

func (p *Prober) probe(ctx context.Context, s Shard) {
	ctx, cancel := context.WithTimeout(ctx, p.cfg.Timeout)
	defer cancel()
	err := p.probeOnce(ctx, s)
	if err != nil {
		p.MarkDown(s.Name, err)
		return
	}
	p.MarkUp(s.Name)
}

func (p *Prober) probeOnce(ctx context.Context, s Shard) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.Addr+"/healthz", nil)
	if err != nil {
		return err
	}
	_, _, err = api.Call(p.cfg.Client, req, 4<<10)
	return err
}

// proxyFailed records a proxied request's transport failure: it is
// counted against the shard, which is marked down.
func (p *Prober) proxyFailed(name string, cause error) {
	p.mu.Lock()
	if st, ok := p.state[name]; ok {
		st.proxyErrs++
	}
	p.mu.Unlock()
	p.MarkDown(name, cause)
}

// MarkDown records a failed probe or proxy attempt: the shard is
// unhealthy and its next probe backs off exponentially.
func (p *Prober) MarkDown(name string, cause error) {
	p.mu.Lock()
	st, ok := p.state[name]
	if !ok {
		p.mu.Unlock()
		return
	}
	wasHealthy := st.healthy
	st.healthy = false
	st.lastErr = cause.Error()
	if st.fails < maxBackoffProbes {
		st.fails++
	}
	st.next = time.Now().Add(p.cfg.Interval << st.fails)
	p.mu.Unlock()
	if wasHealthy && p.cfg.Logger != nil {
		p.cfg.Logger.Warn("shard down", "shard", name, "error", cause.Error())
	}
}

// MarkUp records a successful probe: the shard is healthy and back on
// the regular cadence.
func (p *Prober) MarkUp(name string) {
	p.mu.Lock()
	st, ok := p.state[name]
	if !ok {
		p.mu.Unlock()
		return
	}
	wasHealthy := st.healthy
	st.healthy = true
	st.lastErr = ""
	st.fails = 0
	st.next = time.Now().Add(p.cfg.Interval)
	p.mu.Unlock()
	if !wasHealthy && p.cfg.Logger != nil {
		p.cfg.Logger.Info("shard up", "shard", name)
	}
}

// Healthy reports the current verdict for one shard.
func (p *Prober) Healthy(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.state[name]
	return ok && st.healthy
}

// LastError returns the most recent failure message for an unhealthy
// shard, or "".
func (p *Prober) LastError(name string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.state[name]; ok {
		return st.lastErr
	}
	return ""
}

// writeMetrics emits vmalloc_gate_shard_up and
// vmalloc_gate_proxy_errors_total for the probed shards in configuration
// order.
func (p *Prober) writeMetrics(w io.Writer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	name := "vmalloc_gate_shard_up"
	obs.Declare(w, name, "1 while the prober considers the shard healthy.", "gauge")
	for _, s := range p.shards {
		up := 0
		if p.state[s.Name].healthy {
			up = 1
		}
		obs.Sample(w, name, up, "shard", s.Name)
	}
	name = "vmalloc_gate_proxy_errors_total"
	obs.Declare(w, name, "Transport-level proxy failures per shard.", "counter")
	for _, s := range p.shards {
		obs.Sample(w, name, p.state[s.Name].proxyErrs, "shard", s.Name)
	}
}

// Snapshot returns every shard's health in configuration order.
func (p *Prober) Snapshot() []api.ShardHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]api.ShardHealth, 0, len(p.shards))
	for _, s := range p.shards {
		st := p.state[s.Name]
		out = append(out, api.ShardHealth{
			Name:    s.Name,
			Addr:    s.Addr,
			Weight:  s.Weight,
			Healthy: st.healthy,
			Error:   st.lastErr,
		})
	}
	return out
}
