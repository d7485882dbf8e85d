package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/shard"
)

// MultiClient drives several vmserve shards directly — no vmgate in the
// path — using the same rendezvous map a gate would, so a load run
// through a MultiClient places every VM exactly where a gate-fronted
// run would. It satisfies the runner's API: admissions split by owning
// shard, releases routed by ID, clock advances fanned out, and state
// aggregated with the combined digest (shard.CombineDigests), making
// its reports digest-comparable with a gate's /v1/state.
//
// When a topology source is set (SetTopologySource), the routing map is
// live: every request carries the map's epoch, a shard that has already
// seen a newer topology answers 409 stale_epoch, and the MultiClient
// reacts by re-fetching GET /v1/topology from the source, swapping in
// the newer map, and retrying the op once against the new owner — the
// op is re-routed, not counted as failed.
type MultiClient struct {
	// mu guards m and clients; both are replaced wholesale on a
	// topology swap, so a snapshot taken under RLock stays internally
	// consistent for the rest of the call even if a swap lands mid-op.
	mu        sync.RWMutex
	m         *shard.Map
	clients   map[string]*Client
	configure func(*Client)

	// source is the base URL serving GET /v1/topology (the gate);
	// empty means the topology is fixed for the process lifetime.
	source string

	// refreshed counts topology swaps; rerouted counts ops retried
	// after a stale_epoch refusal instead of being reported failed.
	refreshed atomic.Int64
	rerouted  atomic.Int64
}

// view is one consistent routing snapshot: the map and the client set
// built for exactly its shards. Methods take one view per call so a
// concurrent topology swap cannot misalign scatter results with shard
// names read later.
type view struct {
	m       *shard.Map
	clients map[string]*Client
}

// NewMultiClient builds a multi-target client over the map's shards.
// configure (optional) is applied to each per-shard Client before use —
// the hook for timeouts, retry policy, or a shared http.Client.
func NewMultiClient(m *shard.Map, configure func(*Client)) *MultiClient {
	mc := &MultiClient{m: m, clients: make(map[string]*Client, m.Len()), configure: configure}
	for _, s := range m.Shards() {
		mc.clients[s.Name] = mc.newShardClient(s)
	}
	return mc
}

// newShardClient builds and configures a client for one shard. Epoch
// stamping is applied by the caller once the whole client set exists.
func (mc *MultiClient) newShardClient(s shard.Shard) *Client {
	c := NewClient(s.Addr)
	if mc.configure != nil {
		mc.configure(c)
	}
	return c
}

// Map returns the routing map, so harnesses can compute expected
// placements.
func (mc *MultiClient) Map() *shard.Map {
	mc.mu.RLock()
	defer mc.mu.RUnlock()
	return mc.m
}

// ShardClient returns the per-shard client for direct inspection.
func (mc *MultiClient) ShardClient(name string) *Client {
	mc.mu.RLock()
	defer mc.mu.RUnlock()
	return mc.clients[name]
}

// view snapshots the routing state for one call.
func (mc *MultiClient) view() view {
	mc.mu.RLock()
	defer mc.mu.RUnlock()
	return view{m: mc.m, clients: mc.clients}
}

// SetTopologySource enables live routing: url is the base address of a
// vmgate whose GET /v1/topology is authoritative. From then on requests
// are stamped with the map's epoch and stale_epoch refusals trigger a
// refresh-and-retry instead of a failure. Call before starting the
// workload.
func (mc *MultiClient) SetTopologySource(url string) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.source = strings.TrimRight(url, "/")
	if e := mc.m.Epoch(); e > 0 {
		for _, c := range mc.clients {
			c.SetEpoch(e)
		}
	}
}

// sourceURL reads the topology source under the lock.
func (mc *MultiClient) sourceURL() string {
	mc.mu.RLock()
	defer mc.mu.RUnlock()
	return mc.source
}

// Refreshed returns how many topology swaps the client has applied;
// Rerouted how many ops were retried after a stale_epoch refusal.
func (mc *MultiClient) Refreshed() int { return int(mc.refreshed.Load()) }
func (mc *MultiClient) Rerouted() int  { return int(mc.rerouted.Load()) }

// FetchTopology fetches a gate's current routing map from
// GET <base>/v1/topology — the bootstrap for driving shards directly
// without listing them by hand (vmload -topology-source).
func FetchTopology(ctx context.Context, base string) (*shard.Map, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(base, "/")+"/v1/topology", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("loadgen: fetch topology: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("loadgen: fetch topology: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("loadgen: fetch topology: %w", api.DecodeError(resp.StatusCode, data))
	}
	var tr api.TopologyResponse
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("loadgen: fetch topology: %w", err)
	}
	m, err := shard.FromTopology(api.Topology{Epoch: tr.Epoch, Shards: tr.Shards})
	if err != nil {
		return nil, fmt.Errorf("loadgen: fetch topology: %w", err)
	}
	return m, nil
}

// RefreshTopology fetches the source's current topology and, if its
// epoch is newer than the routing map's, swaps map and clients —
// reusing the per-shard client (and its retry counters, issued-ID set,
// connection pool) for every shard whose name and address survive the
// resize. Returns whether the map changed. A no-op without a source.
func (mc *MultiClient) RefreshTopology(ctx context.Context) (bool, error) {
	mc.mu.RLock()
	source := mc.source
	cur := mc.m.Epoch()
	mc.mu.RUnlock()
	if source == "" {
		return false, nil
	}
	next, err := FetchTopology(ctx, source)
	if err != nil {
		return false, fmt.Errorf("loadgen: topology refresh: %w", err)
	}
	if next.Epoch() <= cur {
		return false, nil
	}

	mc.mu.Lock()
	defer mc.mu.Unlock()
	if next.Epoch() <= mc.m.Epoch() { // lost a refresh race to a newer swap
		return false, nil
	}
	clients := make(map[string]*Client, next.Len())
	for _, s := range next.Shards() {
		if c, ok := mc.clients[s.Name]; ok && c.Base == strings.TrimRight(s.Addr, "/") {
			clients[s.Name] = c
		} else {
			clients[s.Name] = mc.newShardClient(s)
		}
	}
	for _, c := range clients {
		c.SetEpoch(next.Epoch())
	}
	mc.m, mc.clients = next, clients
	mc.refreshed.Add(1)
	return true, nil
}

// staleEpoch reports whether err is (or wraps) a shard's 409
// stale_epoch refusal.
func staleEpoch(err error) bool {
	var apiErr *api.Error
	return errors.As(err, &apiErr) && apiErr.Envelope.Code == api.CodeStaleEpoch
}

// reroute retries op once after refreshing the topology, if err was a
// stale_epoch refusal and a source is configured. The shard fenced the
// request because the routing map is superseded — the op did not
// execute, so the retry against the new owner is safe and the original
// attempt is not an op failure.
func reroute[T any](mc *MultiClient, ctx context.Context, err error, op func() (T, error)) (T, error) {
	var zero T
	if !staleEpoch(err) || mc.sourceURL() == "" {
		return zero, err
	}
	if _, rerr := mc.RefreshTopology(ctx); rerr != nil {
		return zero, fmt.Errorf("%w (topology refresh also failed: %v)", err, rerr)
	}
	mc.rerouted.Add(1)
	return op()
}

// Admit splits the batch by owning shard, issues the sub-batches
// concurrently, and reassembles the outcomes in request order. Every
// request must carry an explicit VM ID (the routing key); the
// generated schedules always do.
func (mc *MultiClient) Admit(ctx context.Context, reqs []api.AdmitRequest) ([]api.AdmitResponse, error) {
	out, err := mc.admitOnce(ctx, reqs)
	if err != nil {
		return reroute(mc, ctx, err, func() ([]api.AdmitResponse, error) {
			return mc.admitOnce(ctx, reqs)
		})
	}
	return out, nil
}

func (mc *MultiClient) admitOnce(ctx context.Context, reqs []api.AdmitRequest) ([]api.AdmitResponse, error) {
	v := mc.view()
	groups, err := shard.SplitAdmits(v.m, reqs)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	resps := make([][]api.AdmitResponse, len(groups))
	errs := shard.Scatter(groups, func(k int, g shard.AdmitGroup) (err error) {
		resps[k], err = v.clients[g.Shard.Name].Admit(ctx, g.Requests)
		return err
	})
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("loadgen: admit on shard %s: %w", groups[k].Shard.Name, err)
		}
	}
	out, err := shard.JoinAdmits(groups, resps)
	if err != nil {
		return nil, fmt.Errorf("loadgen: admit: %w", err)
	}
	return out, nil
}

// Release routes the release to the shard owning the ID.
func (mc *MultiClient) Release(ctx context.Context, id int) (bool, error) {
	v := mc.view()
	ok, err := v.clients[v.m.Assign(id).Name].Release(ctx, id)
	if err != nil {
		return reroute(mc, ctx, err, func() (bool, error) {
			v := mc.view()
			return v.clients[v.m.Assign(id).Name].Release(ctx, id)
		})
	}
	return ok, nil
}

// AdvanceClock fans the advance out to every shard and returns the
// slowest resulting clock. Shard clocks are monotonic, so replaying an
// advance is a no-op and a partially failed fan-out is safe to retry.
func (mc *MultiClient) AdvanceClock(ctx context.Context, now int) (int, error) {
	n, err := mc.advanceClockOnce(ctx, now)
	if err != nil {
		return reroute(mc, ctx, err, func() (int, error) {
			return mc.advanceClockOnce(ctx, now)
		})
	}
	return n, nil
}

func (mc *MultiClient) advanceClockOnce(ctx context.Context, now int) (int, error) {
	clocks, err := gather(mc.view(), "clock", func(c *Client) (int, error) {
		return c.AdvanceClock(ctx, now)
	})
	if err != nil {
		return 0, err
	}
	return slices.Min(clocks), nil
}

// MigrateVM routes the manual migration to the shard owning the VM ID
// and stamps the owning shard on the returned record, mirroring what a
// vmgate would serve.
func (mc *MultiClient) MigrateVM(ctx context.Context, vm, server int) (api.MigrationRecord, error) {
	rec, err := mc.migrateOnce(ctx, vm, server)
	if err != nil {
		return reroute(mc, ctx, err, func() (api.MigrationRecord, error) {
			return mc.migrateOnce(ctx, vm, server)
		})
	}
	return rec, nil
}

func (mc *MultiClient) migrateOnce(ctx context.Context, vm, server int) (api.MigrationRecord, error) {
	v := mc.view()
	name := v.m.Assign(vm).Name
	rec, err := v.clients[name].MigrateVM(ctx, vm, server)
	if err != nil {
		return api.MigrationRecord{}, err
	}
	rec.Shard = name
	return rec, nil
}

// Consolidate fans one pass out to every shard and merges the outcomes
// exactly as a vmgate does (shard.MergeConsolidate).
func (mc *MultiClient) Consolidate(ctx context.Context, req api.ConsolidateRequest) (*api.ConsolidateResponse, error) {
	v := mc.view()
	parts, err := gather(v, "consolidate", func(c *Client) (api.ConsolidateResponse, error) {
		return deref(c.Consolidate(ctx, req))
	})
	if err != nil {
		return nil, err
	}
	out := shard.MergeConsolidate(v.m.Shards(), parts)
	return &out, nil
}

// Migrations merges every shard's history exactly as a vmgate does
// (shard.MergeMigrations), honouring a limit= in the query.
func (mc *MultiClient) Migrations(ctx context.Context, query string) (*api.MigrationsResponse, error) {
	v := mc.view()
	parts, err := gather(v, "migrations", func(c *Client) (api.MigrationsResponse, error) {
		return deref(c.Migrations(ctx, query))
	})
	if err != nil {
		return nil, err
	}
	limit := 0
	if vals, err := url.ParseQuery(query); err == nil {
		limit, _ = strconv.Atoi(vals.Get("limit"))
	}
	out := shard.MergeMigrations(v.m.Shards(), parts, limit)
	return &out, nil
}

// Policies merges every shard's arena readout exactly as a vmgate does
// (shard.MergePolicies).
func (mc *MultiClient) Policies(ctx context.Context) (*api.PoliciesResponse, error) {
	v := mc.view()
	parts, err := gather(v, "policies", func(c *Client) (api.PoliciesResponse, error) {
		return deref(c.Policies(ctx))
	})
	if err != nil {
		return nil, err
	}
	out := shard.MergePolicies(v.m.Shards(), parts)
	return &out, nil
}

// DebugTraces merges every shard's span buffer and regroups the spans
// into one tree per trace id, the way a vmgate's /v1/debug/traces does
// (minus the gate-side spans — there is no gate in this topology). A
// shard that fails the fetch fails the call; the runner treats the
// whole readout as best-effort.
func (mc *MultiClient) DebugTraces(ctx context.Context, query string) (*api.TracesResponse, error) {
	parts, err := gather(mc.view(), "traces", func(c *Client) (api.TracesResponse, error) {
		return deref(c.DebugTraces(ctx, query))
	})
	if err != nil {
		return nil, err
	}
	out := shard.MergeTraces(nil, parts)
	return &out, nil
}

// StateSummary aggregates every shard's summary; the digest is the
// combined per-shard digest, equal to what a vmgate over the same
// shards would serve.
func (mc *MultiClient) StateSummary(ctx context.Context) (StateSummary, error) {
	v := mc.view()
	sums, err := gather(v, "state", func(c *Client) (StateSummary, error) {
		return c.StateSummary(ctx)
	})
	if err != nil {
		return StateSummary{}, err
	}
	var out StateSummary
	digests := make(map[string]string, len(sums))
	for i, sum := range sums {
		if i == 0 || sum.Now < out.Now {
			out.Now = sum.Now
		}
		out.Residents += sum.Residents
		out.TotalEnergy += sum.TotalEnergy
		digests[v.m.Shards()[i].Name] = sum.Digest
	}
	out.Digest = shard.CombineDigests(digests)
	return out, nil
}

// Metrics scrapes every shard and sums series point-wise — meaningful
// for the counter deltas the report prints (admissions, rejections,
// releases across the deployment).
func (mc *MultiClient) Metrics(ctx context.Context) (Metrics, error) {
	scrapes, err := gather(mc.view(), "metrics", func(c *Client) (Metrics, error) {
		return c.Metrics(ctx)
	})
	if err != nil {
		return nil, err
	}
	sum := make(Metrics)
	for _, m := range scrapes {
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// Retried sums retry attempts across the per-shard clients.
func (mc *MultiClient) Retried() int {
	v := mc.view()
	total := 0
	for _, c := range v.clients {
		total += c.Retried()
	}
	return total
}

// WaitReady waits until every shard answers /healthz.
func (mc *MultiClient) WaitReady(ctx context.Context, d time.Duration) error {
	_, err := gather(mc.view(), "readiness", func(c *Client) (struct{}, error) {
		return struct{}{}, c.WaitReady(ctx, d)
	})
	return err
}

// gather runs fn against every shard's client concurrently and returns
// the answers in configuration order, or the first failing shard's
// error (in that order), named. It operates on one view so a concurrent
// topology swap cannot misalign answers with shard names. (A free
// function because methods cannot be generic.)
func gather[T any](v view, what string, fn func(*Client) (T, error)) ([]T, error) {
	shards := v.m.Shards()
	vals := make([]T, len(shards))
	errs := shard.Scatter(shards, func(i int, s shard.Shard) (err error) {
		vals[i], err = fn(v.clients[s.Name])
		return err
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("loadgen: %s on shard %s: %w", what, shards[i].Name, err)
		}
	}
	return vals, nil
}

// deref adapts the typed client's pointer-returning readers to the
// value slices the merge core folds.
func deref[T any](p *T, err error) (T, error) {
	if err != nil {
		var zero T
		return zero, err
	}
	return *p, nil
}
