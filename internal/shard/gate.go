package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/config"
	"vmalloc/internal/obs"
)

// DefaultProxyTimeout bounds one proxied request when Config.Timeout is
// 0.
const DefaultProxyTimeout = 10 * time.Second

// DefaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is 0
// (same ceiling as the shards themselves).
const DefaultMaxBodyBytes = 8 << 20

// Config configures a Gate. The zero value works.
type Config struct {
	// Timeout bounds each proxied request; 0 means DefaultProxyTimeout.
	Timeout time.Duration
	// MaxBodyBytes caps inbound request bodies; 0 means
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// ProbeInterval is the health-check cadence; 0 means
	// DefaultProbeInterval.
	ProbeInterval time.Duration
	// Client issues proxied requests and probes; nil means a dedicated
	// client (important: tests fronting httptest servers pass
	// ts.Client()).
	Client *http.Client
	// Logger gets the access log and shard health transitions; nil
	// discards.
	Logger *slog.Logger
	// Metrics collects the gate's own per-route counts and latencies,
	// exported under vmalloc_gate_http_*; nil disables them.
	Metrics *obs.HTTPMetrics
	// Spans, when non-nil, records the gate's side of each distributed
	// trace — the edge route span, one fan-out span per downstream shard
	// call, and the scatter-gather merge — and backs the gate's
	// GET /v1/debug/traces, which stitches these with the shard-fetched
	// spans into one tree per trace id. The traceparent header is
	// propagated downstream whether or not a store is configured.
	Spans *obs.SpanStore
}

// Gate is the stateless routing front for a set of vmserve shards. It
// serves the same /v1 surface the shards do — admissions routed by VM
// ID, releases proxied to the owning shard, clock advances fanned out,
// state and metrics scatter-gathered — plus /v1/shards for the health
// view. A down shard degrades only its own key range: requests whose
// VM IDs all hash to live shards keep succeeding, and requests touching
// the dead shard fail with a scoped, shard-naming api.ErrorEnvelope.
type Gate struct {
	// topo is the gate's routing state: the current shard map plus,
	// during a topology transition window, the superseded one (see
	// rebalance.go). Handlers load it once per request so one request
	// never sees two different topologies.
	topo   atomic.Pointer[topoState]
	cfg    Config
	hc     *http.Client
	prober *Prober

	// proxyErrs counts transport-level proxy failures per shard. The
	// shard set changes across topology epochs, so the map is guarded
	// (new shards get counters lazily) while each counter stays a
	// lock-free atomic for the data path.
	peMu      sync.Mutex
	proxyErrs map[string]*atomic.Uint64

	// reb tracks the state of the current (and last) topology drain.
	reb rebalancer
}

// NewGate builds a gate over the shard map. Call Run to start health
// probing and Handler for the HTTP surface.
func NewGate(m *Map, cfg Config) *Gate {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultProxyTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{}
	}
	g := &Gate{
		cfg: cfg,
		hc:  hc,
		prober: NewProber(m, ProberConfig{
			Interval: cfg.ProbeInterval,
			Timeout:  cfg.Timeout,
			Client:   hc,
			Logger:   cfg.Logger,
		}),
		proxyErrs: make(map[string]*atomic.Uint64, m.Len()),
	}
	g.topo.Store(&topoState{cur: m})
	for _, s := range m.Shards() {
		g.proxyErrs[s.Name] = new(atomic.Uint64)
	}
	return g
}

// Map returns the gate's current shard map (the newest topology epoch).
func (g *Gate) Map() *Map { return g.topo.Load().cur }

// proxyErr returns the transport-failure counter for a shard, creating
// it on first use (shards join at topology swaps, after construction).
func (g *Gate) proxyErr(name string) *atomic.Uint64 {
	g.peMu.Lock()
	defer g.peMu.Unlock()
	c := g.proxyErrs[name]
	if c == nil {
		c = new(atomic.Uint64)
		g.proxyErrs[name] = c
	}
	return c
}

// Prober exposes the gate's health prober (the daemon runs it; tests
// force verdicts through it).
func (g *Gate) Prober() *Prober { return g.prober }

// Run probes shard health until ctx is cancelled.
func (g *Gate) Run(ctx context.Context) { g.prober.Run(ctx) }

// Handler returns the gate's HTTP surface, wrapped in the same
// request-id/access-log/metrics middleware the shards use.
func (g *Gate) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/vms", g.handleAdmit)
	mux.HandleFunc("DELETE /v1/vms/{id}", g.handleRelease)
	mux.HandleFunc("POST /v1/clock", g.handleClock)
	mux.HandleFunc("POST /v1/migrations", g.handleMigrate)
	mux.HandleFunc("GET /v1/migrations", g.handleMigrations)
	mux.HandleFunc("GET /v1/policies", g.handlePolicies)
	mux.HandleFunc("POST /v1/consolidate", g.handleConsolidate)
	mux.HandleFunc("GET /v1/state", g.handleState)
	mux.HandleFunc("GET /v1/shards", g.handleShards)
	mux.HandleFunc("GET /v1/topology", g.handleTopology)
	mux.HandleFunc("POST /v1/topology", g.handleTopologyPost)
	mux.HandleFunc("GET /v1/debug/traces", g.handleTraces)
	mux.HandleFunc("GET /v1/debug/energy", g.handleEnergy)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return obs.Middleware(mux, g.cfg.Logger, g.cfg.Metrics, g.cfg.Spans)
}

// call proxies one request to a shard and returns the response body, or
// an *api.Error carrying the status and envelope the gate should relay.
// An unhealthy shard fails fast without a network round trip; a
// transport failure marks the shard down on the spot (the data path is
// the freshest health probe there is).
func (g *Gate) call(ctx context.Context, s Shard, method, path string, body []byte) (http.Header, []byte, *api.Error) {
	stamped := int64(0)
	for attempt := 0; ; attempt++ {
		hdr, data, perr, sent := g.callOnce(ctx, s, method, path, body)
		// Self-heal a lost race with our own topology swap: a request can
		// pick up the old epoch stamp just before the rebalancer's first
		// contact ratchets the shard's fence, and arrive just after. The
		// shard refuses it (409 stale_epoch) without executing anything,
		// so re-sending with the newer stamp is always safe; routing was
		// already decided by the caller, and any admission this parks on
		// an ex-owner is picked up by the drain's next pass (the drain
		// only finishes after a pass that plans no moves).
		if perr == nil || perr.Envelope.Code != api.CodeStaleEpoch || attempt >= 2 {
			return hdr, data, perr
		}
		if cur := g.topo.Load().cur.Epoch(); cur <= sent || sent <= stamped && attempt > 0 {
			// The fence is ahead of every epoch this gate has accepted —
			// a foreign (newer) topology owns the shard now; surface it.
			return hdr, data, perr
		}
		stamped = sent
	}
}

// callOnce issues one proxied request; sent is the topology epoch it was
// stamped with (0 = unversioned).
func (g *Gate) callOnce(ctx context.Context, s Shard, method, path string, body []byte) (http.Header, []byte, *api.Error, int64) {
	if !g.prober.Healthy(s.Name) {
		return nil, nil, g.shardDown(s, errors.New(g.prober.LastError(s.Name))), 0
	}
	ctx, cancel := context.WithTimeout(ctx, g.cfg.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.Addr+path, rd)
	if err != nil {
		return nil, nil, &api.Error{Status: http.StatusInternalServerError, Envelope: api.ErrorEnvelope{
			Code: api.CodeInternal, Message: fmt.Sprintf("shard %s: build request: %v", s.Name, err)}}, 0
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	// Stamp the newest topology epoch on every downstream call. The
	// shards' passive fence ratchets on it, so the first request a newer
	// topology sends a shard immunises that shard against stale writers
	// (epoch 0 = unversioned maps, which never stamp).
	sent := g.topo.Load().cur.Epoch()
	if sent > 0 {
		req.Header.Set(api.EpochHeader, strconv.FormatInt(sent, 10))
	}
	// Propagate the trace downstream: a fresh fan-out span id under the
	// request's trace becomes the parent of the shard's edge span, which
	// is what lets /v1/debug/traces stitch gate and shard spans into one
	// tree. The header goes out even without a local span store.
	tc := obs.TraceContextFrom(ctx)
	var fan obs.TraceContext
	if tc.Valid() {
		fan = obs.TraceContext{TraceID: tc.TraceID, SpanID: obs.NewSpanID()}
		req.Header.Set(obs.TraceParentHeader, fan.Header())
	}
	t0 := time.Now()
	fanout := func(errMsg string) {
		if !fan.Valid() {
			return
		}
		g.cfg.Spans.Record(obs.Span{
			TraceID: fan.TraceID, SpanID: fan.SpanID, Parent: tc.SpanID,
			Name: obs.SpanFanout, Detail: s.Name, Err: errMsg,
			Start: t0, Duration: time.Since(t0),
		})
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		fanout(err.Error())
		g.proxyErr(s.Name).Add(1)
		g.prober.MarkDown(s.Name, err)
		return nil, nil, g.shardDown(s, err), sent
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, g.cfg.MaxBodyBytes+1))
	if err != nil {
		fanout(err.Error())
		g.proxyErr(s.Name).Add(1)
		g.prober.MarkDown(s.Name, err)
		return nil, nil, g.shardDown(s, err), sent
	}
	fanout("")
	if resp.StatusCode >= 400 {
		// The shard answered: it is up, just refusing. Relay its
		// envelope with the shard named in the message.
		perr := api.DecodeError(resp.StatusCode, data)
		perr.Envelope.Message = fmt.Sprintf("shard %s: %s", s.Name, perr.Envelope.Message)
		return resp.Header, nil, perr, sent
	}
	return resp.Header, data, nil, sent
}

func (g *Gate) shardDown(s Shard, cause error) *api.Error {
	msg := fmt.Sprintf("shard %s down", s.Name)
	if cause != nil && cause.Error() != "" {
		msg += ": " + cause.Error()
	}
	return &api.Error{Status: http.StatusServiceUnavailable, Envelope: api.ErrorEnvelope{
		Code: api.CodeShardDown, Message: msg}}
}

// fetch proxies one request to a shard and decodes its JSON answer.
func fetch[T any](g *Gate, ctx context.Context, s Shard, method, path string, body []byte) (T, *api.Error) {
	_, data, perr := g.call(ctx, s, method, path, body)
	if perr != nil {
		var zero T
		return zero, perr
	}
	return decode[T](s, method+" "+path, data)
}

// decode parses a shard's answer; one that does not parse is a typed 502
// naming the shard (it is up and answering, just not in our dialect).
func decode[T any](s Shard, what string, data []byte) (T, *api.Error) {
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		return v, &api.Error{Status: http.StatusBadGateway, Envelope: api.ErrorEnvelope{
			Code: api.CodeInternal, Message: fmt.Sprintf("shard %s: parse %s response: %v", s.Name, what, err)}}
	}
	return v, nil
}

// gather fetches one path from every listed shard concurrently and
// returns the decoded answers in shard order. All-or-nothing: a partial
// view would silently undercount, so any failing shard fails the whole
// read with its name in the envelope.
func gather[T any](g *Gate, ctx context.Context, shards []Shard, method, path string, body []byte) ([]T, *api.Error) {
	vals := make([]T, len(shards))
	errs := Scatter(shards, func(i int, s Shard) (perr *api.Error) {
		vals[i], perr = fetch[T](g, ctx, s, method, path, body)
		return perr
	})
	if perr := foldErrors(errs); perr != nil {
		return nil, perr
	}
	return vals, nil
}

// handleAdmit splits the batch by owning shard, fans the sub-batches
// out concurrently, and reassembles the responses in request order.
// All-or-nothing per request: if any touched shard fails, the whole
// request fails with that shard's envelope (the client retries the
// batch; admissions with explicit IDs are idempotent, so re-admitting
// the half that succeeded folds into "already resident").
func (g *Gate) handleAdmit(w http.ResponseWriter, r *http.Request) {
	reqs, err := api.DecodeAdmitRequests(r.Body, g.cfg.MaxBodyBytes)
	if err != nil {
		writeDecodeError(w, r, err)
		return
	}
	// Admissions always route by the newest map: during a transition
	// window a brand-new VM belongs on its new owner from minute one, so
	// the drain never has to move it.
	groups, err := SplitAdmits(g.topo.Load().cur, reqs)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	resps := make([][]api.AdmitResponse, len(groups))
	errs := Scatter(groups, func(k int, grp AdmitGroup) (perr *api.Error) {
		body, merr := json.Marshal(grp.Requests)
		if merr != nil {
			return &api.Error{Status: http.StatusInternalServerError, Envelope: api.ErrorEnvelope{
				Code: api.CodeInternal, Message: merr.Error()}}
		}
		resps[k], perr = fetch[[]api.AdmitResponse](g, r.Context(), grp.Shard, http.MethodPost, "/v1/vms", body)
		return perr
	})
	if perr := foldErrors(errs); perr != nil {
		writeJSON(w, r, perr.Status, perr.Envelope)
		return
	}
	mergeT0 := time.Now()
	out, err := JoinAdmits(groups, resps)
	if err != nil {
		writeError(w, r, http.StatusBadGateway, api.CodeInternal, err)
		return
	}
	g.recordMerge(r.Context(), mergeT0)
	writeJSON(w, r, http.StatusOK, out)
}

// recordMerge records the gate-side span covering reassembly of a
// scatter-gather response after every shard has answered.
func (g *Gate) recordMerge(ctx context.Context, t0 time.Time) {
	tc := obs.TraceContextFrom(ctx)
	if g.cfg.Spans == nil || !tc.Valid() {
		return
	}
	g.cfg.Spans.Record(obs.Span{
		TraceID: tc.TraceID, SpanID: obs.NewSpanID(), Parent: tc.SpanID,
		Name: obs.SpanMerge, Start: t0, Duration: time.Since(t0),
	})
}

// foldErrors combines per-shard failures into one envelope: the first
// failing shard (in shard order) sets the status and code, and the
// message names every failed shard so a partially degraded fan-out is
// fully visible from one error.
func foldErrors(errs []*api.Error) *api.Error {
	var first *api.Error
	var msgs []string
	for _, e := range errs {
		if e != nil {
			if first == nil {
				first = e
			}
			msgs = append(msgs, e.Envelope.Message)
		}
	}
	if first == nil {
		return nil
	}
	folded := *first
	folded.Envelope.Message = strings.Join(msgs, "; ")
	return &folded
}

// callOwner proxies a VM-addressed request to the shard owning the ID.
// During a topology transition window a remapped VM may still be
// resident on its old owner (the drain has not reached it yet), so a
// not_resident answer from the new owner falls back to the old one —
// and, because the drain may move the VM between those two probes
// (adopt-before-release keeps it on at least one of them throughout),
// once more to the new owner. The request is only a 404 when every
// probe denies residency. The fall-back composes with the drain's own
// compensation: whichever side releases first wins, and the other call
// folds into not_resident. Returns the shard that answered.
func (g *Gate) callOwner(ctx context.Context, id int, method, path string, body []byte) (Shard, []byte, *api.Error) {
	ts := g.topo.Load()
	s := ts.cur.Assign(id)
	_, data, perr := g.call(ctx, s, method, path, body)
	if perr == nil || ts.prev == nil || perr.Envelope.Code != api.CodeNotResident {
		return s, data, perr
	}
	if old := ts.prev.Assign(id); old.Name != s.Name {
		for _, owner := range []Shard{old, s} {
			if _, data, retryErr := g.call(ctx, owner, method, path, body); retryErr == nil {
				return owner, data, nil
			}
		}
	}
	return s, nil, perr
}

// handleRelease proxies the release to the shard owning the VM ID and
// relays the shard's response verbatim.
func (g *Gate) handleRelease(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Errorf("bad vm id %q", r.PathValue("id")))
		return
	}
	_, data, perr := g.callOwner(r.Context(), id, http.MethodDelete, "/v1/vms/"+strconv.Itoa(id), nil)
	if perr != nil {
		writeJSON(w, r, perr.Status, perr.Envelope)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck // client gone
}

// handleMigrate routes a manual migration to the shard owning the VM ID
// (migrations address servers within a shard) and relays the shard's
// api.MigrationRecord with the owning shard stamped, so a gate client
// sees the same record shape a direct shard client does, plus
// provenance.
func (g *Gate) handleMigrate(w http.ResponseWriter, r *http.Request) {
	req, err := api.DecodeMigrateRequest(r.Body, g.cfg.MaxBodyBytes)
	if err != nil {
		writeDecodeError(w, r, err)
		return
	}
	body, merr := json.Marshal(req)
	if merr != nil {
		writeError(w, r, http.StatusInternalServerError, api.CodeInternal, merr)
		return
	}
	s, data, perr := g.callOwner(r.Context(), req.VM, http.MethodPost, "/v1/migrations", body)
	if perr != nil {
		writeJSON(w, r, perr.Status, perr.Envelope)
		return
	}
	rec, perr := decode[api.MigrationRecord](s, "POST /v1/migrations", data)
	if perr != nil {
		writeJSON(w, r, perr.Status, perr.Envelope)
		return
	}
	rec.Shard = s.Name
	writeJSON(w, r, http.StatusOK, rec)
}

// handleMigrations scatter-gathers every shard's migration history into
// one merged api.MigrationsResponse: records stamped with their owning
// shard, ordered by (time, shard, seq), the newest ?limit= kept.
// All-or-nothing like the state read: a partial history would silently
// undercount.
func (g *Gate) handleMigrations(w http.ResponseWriter, r *http.Request) {
	if err := checkCounts(r.URL.Query(), "vm", "limit"); err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	shards := g.topo.Load().active()
	parts, perr := gather[api.MigrationsResponse](g, r.Context(), shards, http.MethodGet, withQuery("/v1/migrations", r), nil)
	if perr != nil {
		writeJSON(w, r, perr.Status, perr.Envelope)
		return
	}
	limit, _ := strconv.Atoi(r.URL.Query().Get("limit")) // validated above; absent ⇒ 0 ⇒ keep all
	writeJSON(w, r, http.StatusOK, MergeMigrations(shards, parts, limit))
}

// handlePolicies scatter-gathers every shard's GET /v1/policies into one
// merged api.PoliciesResponse: challenger reports stamped with their
// owning shard and ordered by (name, shard), champion energy and arena
// event counters summed, the clock the slowest shard's, and distinct
// per-shard champion names joined with ", ". All-or-nothing like the
// other aggregate reads: a partial arena readout would silently
// misstate the counterfactuals.
func (g *Gate) handlePolicies(w http.ResponseWriter, r *http.Request) {
	shards := g.topo.Load().active()
	parts, perr := gather[api.PoliciesResponse](g, r.Context(), shards, http.MethodGet, "/v1/policies", nil)
	if perr != nil {
		writeJSON(w, r, perr.Status, perr.Envelope)
		return
	}
	writeJSON(w, r, http.StatusOK, MergePolicies(shards, parts))
}

// handleConsolidate fans one consolidation pass out to every shard and
// aggregates the outcomes: summed donors/moves/savings, the merged
// shard-stamped move list, the slowest shard's clock. Shards consolidate
// independently — a VM never crosses shards, so per-shard passes compose
// into exactly the fleet-wide pass. A shard already running a pass folds
// to 409 consolidation_busy; a retry is safe (the pay-for-itself rule
// makes passes idempotent once nothing profitable remains).
func (g *Gate) handleConsolidate(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	if _, derr := api.DecodeConsolidateRequest(bytes.NewReader(body), g.cfg.MaxBodyBytes); derr != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, derr)
		return
	}
	shards := g.topo.Load().active()
	parts, perr := gather[api.ConsolidateResponse](g, r.Context(), shards, http.MethodPost, "/v1/consolidate", body)
	if perr != nil {
		writeJSON(w, r, perr.Status, perr.Envelope)
		return
	}
	writeJSON(w, r, http.StatusOK, MergeConsolidate(shards, parts))
}

// readBody reads a request body the gate forwards verbatim. One over
// MaxBodyBytes is refused with 413 here — forwarding a truncated prefix
// would come back as some shard's parse error. ok is false when the
// refusal has been written.
func (g *Gate) readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, g.cfg.MaxBodyBytes+1))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, err)
		return nil, false
	}
	if int64(len(body)) > g.cfg.MaxBodyBytes {
		writeError(w, r, http.StatusRequestEntityTooLarge, api.CodeBadRequest, api.ErrBodyTooLarge)
		return nil, false
	}
	return body, true
}

// handleClock fans the advance out to every shard and reports the
// slowest resulting clock. The shard clock is monotonic, so replaying
// an advance onto a shard that already took it is a no-op — which makes
// retrying a partially failed fan-out safe.
func (g *Gate) handleClock(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	parts, perr := gather[api.ClockResponse](g, r.Context(), g.topo.Load().active(), http.MethodPost, "/v1/clock", body)
	if perr != nil {
		writeJSON(w, r, perr.Status, perr.Envelope)
		return
	}
	minNow := parts[0].Now
	for _, p := range parts[1:] {
		minNow = min(minNow, p.Now)
	}
	writeJSON(w, r, http.StatusOK, api.ClockResponse{Now: minNow})
}

// handleState gathers every shard's state into one api.GateStateResponse
// with cross-shard aggregates and the combined digest. All-or-nothing:
// a partial view would silently undercount, so a down shard fails the
// whole read with its name in the envelope.
func (g *Gate) handleState(w http.ResponseWriter, r *http.Request) {
	type result struct {
		st     *api.StateResponse
		digest string
	}
	shards := g.topo.Load().active()
	results := make([]result, len(shards))
	errs := Scatter(shards, func(i int, s Shard) *api.Error {
		hdr, data, perr := g.call(r.Context(), s, http.MethodGet, "/v1/state", nil)
		if perr != nil {
			return perr
		}
		st, perr := decode[api.StateResponse](s, "GET /v1/state", data)
		if perr != nil {
			return perr
		}
		digest := hdr.Get(api.StateDigestHeader)
		if digest == "" {
			digest = api.DigestBytes(data)
		}
		results[i] = result{st: &st, digest: digest}
		return nil
	})
	if perr := foldErrors(errs); perr != nil {
		writeJSON(w, r, perr.Status, perr.Envelope)
		return
	}

	mergeT0 := time.Now()
	out := api.GateStateResponse{Now: results[0].st.Now}
	digests := make(map[string]string, len(shards))
	var placements []Placement
	for i, res := range results {
		st := res.st
		out.Now = min(out.Now, st.Now)
		out.Admitted += st.Admitted
		out.Released += st.Released
		out.Migrations += st.Migrations
		out.MigrationSaved += st.MigrationSaved
		out.Residents += len(st.VMs)
		out.ServersUsed += st.ServersUsed
		out.TotalEnergy += st.TotalEnergy
		digests[shards[i].Name] = res.digest
		for _, pv := range st.VMs {
			placements = append(placements, Placement{
				ID: pv.VM.ID, Shard: shards[i].Name,
				Start: pv.Start, End: pv.Start + (pv.VM.End - pv.VM.Start),
				CPU: pv.VM.Demand.CPU, Mem: pv.VM.Demand.Mem,
			})
		}
		out.Shards = append(out.Shards, api.ShardState{
			Shard: shards[i].Name, Addr: shards[i].Addr, Digest: res.digest, State: st,
		})
	}
	out.Digest = CombineDigests(digests)
	// The placement digest fingerprints residency alone, so a resized
	// deployment can be compared byte-for-byte against a never-resized
	// control whose per-shard counters necessarily differ.
	out.PlacementDigest = PlacementDigest(placements)
	g.recordMerge(r.Context(), mergeT0)

	b, err := api.EncodeGateState(&out)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, api.CodeInternal, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(api.StateDigestHeader, out.Digest)
	w.Write(b) //nolint:errcheck // client gone
}

// handleTraces answers the gate's /v1/debug/traces: the same filter
// query every shard accepts, fanned out best-effort (a down shard's
// spans are simply absent, like /metrics), with the gate's own route /
// fan-out / merge spans mixed in and everything regrouped into one tree
// per trace id. Because the fan-out span minted in g.call is the parent
// of the shard's edge span, a single admission through the gate shows
// up here as one stitched trace spanning both processes.
func (g *Gate) handleTraces(w http.ResponseWriter, r *http.Request) {
	f, err := obs.SpanFilterFromQuery(r.URL.Query())
	if err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	path := withQuery("/v1/debug/traces", r)
	// Gate spans are read before the fan-out so this request's own
	// fan-out spans do not pollute the answer.
	all := g.cfg.Spans.Spans(f)
	parts := Scatter(g.topo.Load().active(), func(_ int, s Shard) api.TracesResponse {
		tr, _ := fetch[api.TracesResponse](g, r.Context(), s, http.MethodGet, path, nil)
		return tr // a failed shard contributes no spans
	})
	writeJSON(w, r, http.StatusOK, MergeTraces(all, parts))
}

// handleEnergy aggregates every shard's /v1/debug/energy. Unlike traces
// this is all-or-nothing: fleet energy totals are only meaningful when
// every shard answered, so a failing shard fails the request the same
// way /v1/state does.
func (g *Gate) handleEnergy(w http.ResponseWriter, r *http.Request) {
	if err := checkCounts(r.URL.Query(), "since", "limit"); err != nil {
		writeError(w, r, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	shards := g.topo.Load().active()
	parts, perr := gather[api.EnergyResponse](g, r.Context(), shards, http.MethodGet, withQuery("/v1/debug/energy", r), nil)
	if perr != nil {
		writeJSON(w, r, perr.Status, perr.Envelope)
		return
	}
	out := api.GateEnergyResponse{Now: parts[0].Now}
	for i, er := range parts {
		out.Now = min(out.Now, er.Now)
		out.TotalWattMinutes += er.TotalWattMinutes
		out.Shards = append(out.Shards, api.ShardEnergy{Shard: shards[i].Name, Energy: er})
	}
	writeJSON(w, r, http.StatusOK, out)
}

// withQuery forwards the request's query string to a shard path.
func withQuery(path string, r *http.Request) string {
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	return path
}

// checkCounts validates the named query parameters the gate itself
// relies on: each, when present, must be a non-negative integer.
func checkCounts(q url.Values, names ...string) error {
	for _, p := range names {
		if v := q.Get(p); v != "" {
			if n, err := strconv.Atoi(v); err != nil || n < 0 {
				return fmt.Errorf("bad %s %q: want a non-negative integer", p, v)
			}
		}
	}
	return nil
}

func (g *Gate) handleShards(w http.ResponseWriter, r *http.Request) {
	hs := g.prober.Snapshot()
	writeJSON(w, r, http.StatusOK, api.ShardsResponse{
		Epoch: g.topo.Load().cur.Epoch(), Count: len(hs), Shards: hs,
	})
}

// handleHealthz is 200 only when every shard is healthy; a degraded
// gate says which shards are down so orchestration can route around it.
func (g *Gate) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var down []string
	for _, h := range g.prober.Snapshot() {
		if !h.Healthy {
			down = append(down, h.Name)
		}
	}
	if len(down) > 0 {
		writeError(w, r, http.StatusServiceUnavailable, api.CodeShardDown,
			fmt.Errorf("shards down: %s", strings.Join(down, ", ")))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n") //nolint:errcheck // client gone
}

// handleMetrics scrapes every healthy shard's /metrics concurrently,
// merges the expositions under an injected shard label, and appends the
// gate's own families (vmalloc_gate_*). A down or failing shard is
// skipped rather than failing the scrape — its absence is itself
// visible as vmalloc_gate_shard_up 0.
func (g *Gate) handleMetrics(w http.ResponseWriter, r *http.Request) {
	shards := g.topo.Load().active()
	payloads := Scatter(shards, func(_ int, s Shard) []byte {
		_, data, _ := g.call(r.Context(), s, http.MethodGet, "/metrics", nil)
		return data // nil when the shard failed
	})

	byName := make(map[string][]byte, len(shards))
	order := make([]string, 0, len(shards))
	for i, s := range shards {
		if payloads[i] != nil {
			order = append(order, s.Name)
			byName[s.Name] = payloads[i]
		}
	}
	var buf bytes.Buffer
	MergeExpositions(&buf, order, byName)
	g.writeOwnMetrics(&buf)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes()) //nolint:errcheck // client gone
}

// writeOwnMetrics emits the gate's own families. They live under
// vmalloc_gate_* precisely so they can never collide with the shard
// families merged above (which include vmalloc_http_* and vmalloc_go_*
// from each shard).
func (g *Gate) writeOwnMetrics(w io.Writer) {
	name := "vmalloc_gate_shard_up"
	fmt.Fprintf(w, "# HELP %s 1 while the prober considers the shard healthy.\n# TYPE %s gauge\n", name, name)
	for _, h := range g.prober.Snapshot() {
		up := 0
		if h.Healthy {
			up = 1
		}
		fmt.Fprintf(w, "%s{shard=%q} %d\n", name, h.Name, up)
	}
	name = "vmalloc_gate_proxy_errors_total"
	fmt.Fprintf(w, "# HELP %s Transport-level proxy failures per shard.\n# TYPE %s counter\n", name, name)
	g.peMu.Lock()
	names := make([]string, 0, len(g.proxyErrs))
	for n := range g.proxyErrs {
		names = append(names, n)
	}
	counts := make(map[string]uint64, len(names))
	for _, n := range names {
		counts[n] = g.proxyErrs[n].Load()
	}
	g.peMu.Unlock()
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s{shard=%q} %d\n", name, n, counts[n])
	}
	g.writeRebalanceMetrics(w)
	if g.cfg.Metrics != nil {
		g.cfg.Metrics.WriteNamed(w, "vmalloc_gate_http_requests_total", "vmalloc_gate_http_request_seconds")
	}
	// The gate_ prefix keeps these from colliding with the shards'
	// vmalloc_trace_* families in the merged exposition above.
	g.cfg.Spans.WriteMetrics(w, "vmalloc_gate_trace")
	b := config.Build()
	name = "vmalloc_gate_build_info"
	fmt.Fprintf(w, "# HELP %s Build identity of the running vmgate binary (constant 1).\n# TYPE %s gauge\n", name, name)
	fmt.Fprintf(w, "%s{version=%q,goversion=%q,revision=%q,modified=\"%t\"} 1\n",
		name, b.Version, b.GoVersion, b.Revision, b.Modified)
}

func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	if env, ok := v.(api.ErrorEnvelope); ok && env.RequestID == "" {
		env.RequestID = obs.RequestID(r.Context())
		v = env
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone
}

// writeDecodeError refuses a request body that did not decode: 413 when
// it blew the size cap, 400 otherwise.
func writeDecodeError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, api.ErrBodyTooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, r, status, api.CodeBadRequest, err)
}

// writeError writes an api.ErrorEnvelope with the gate's request id, so
// a failure seen by a client joins the gate's access log (and, for
// proxied failures, the shard's flight recorder) on one id.
func writeError(w http.ResponseWriter, r *http.Request, status int, code string, err error) {
	writeJSON(w, r, status, api.ErrorEnvelope{Code: code, Message: err.Error()})
}
