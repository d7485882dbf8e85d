package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/obs"
)

// proxyTimeout bounds one proxied request and one health probe.
const proxyTimeout = 10 * time.Second

// Config configures a Gate. The zero value works.
type Config struct {
	// Client issues proxied requests and probes; nil means a dedicated
	// client (important: tests fronting httptest servers pass
	// ts.Client()).
	Client *http.Client
	// Logger gets the access log and shard health transitions; nil
	// discards.
	Logger *slog.Logger
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
	// rebalance.go), and each active shard's health record. Handlers load
	// it once per request so one request never sees two different
	// topologies.
	topo atomic.Pointer[topoState]
	// mu guards the fields of every shardHealth record (health.go).
	mu  sync.Mutex
	cfg Config
	hc  *http.Client
	// metrics counts the gate's own routes, exported under
	// vmalloc_gate_http_*.
	metrics *obs.HTTPMetrics

	// reb tracks the state of the current (and last) topology drain.
	reb rebalancer
}

// NewGate builds a gate over the shard map. Call Run to start health
// probing and Handler for the HTTP surface.
func NewGate(m *Map, cfg Config) *Gate {
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{}
	}
	g := &Gate{
		cfg:     cfg,
		hc:      hc,
		metrics: obs.NewHTTPMetrics(),
	}
	g.topo.Store(newTopo(m, nil, nil))
	return g
}

// Handler returns the gate's HTTP surface, wrapped in the same
// request-id/access-log/metrics middleware the shards use.
func (g *Gate) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/vms", g.handleAdmit)
	mux.HandleFunc("DELETE /v1/vms/{id}", g.handleRelease)
	mux.HandleFunc("POST /v1/migrations", g.handleMigrate)
	mux.HandleFunc("POST /v1/clock", gatherRoute(g, checkBody(api.DecodeClockRequest), ignoreQuery(MergeClocks)))
	mux.HandleFunc("POST /v1/consolidate", gatherRoute(g, checkBody(api.DecodeConsolidateRequest), ignoreQuery(MergeConsolidate)))
	mux.HandleFunc("GET /v1/migrations", gatherRoute(g, checkInts("vm", "limit"),
		func(shards []Shard, parts []api.MigrationsResponse, q url.Values) api.MigrationsResponse {
			limit, _ := api.QueryInt(q, "limit", 0) // validated by the check; absent ⇒ 0 ⇒ keep all
			return MergeMigrations(shards, parts, limit)
		}))
	mux.HandleFunc("GET /v1/debug/energy", gatherRoute(g, checkInts("since", "limit"), ignoreQuery(MergeEnergy)))
	mux.HandleFunc("GET /v1/state", g.handleState)
	mux.HandleFunc("GET /v1/shards", g.handleShards)
	mux.HandleFunc("GET /v1/topology", g.handleTopology)
	mux.HandleFunc("POST /v1/topology", g.handleTopologyPost)
	mux.HandleFunc("GET /v1/debug/traces", g.handleTraces)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return obs.Middleware(mux, g.cfg.Logger, g.metrics, g.cfg.Spans)
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
	if healthy, lastErr := g.health(s.Name); !healthy {
		return nil, nil, g.shardDown(s, errors.New(lastErr)), 0
	}
	ctx, cancel := context.WithTimeout(ctx, proxyTimeout)
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
	hdr, data, err := api.Call(g.hc, req, api.MaxBodyBytes)
	var perr *api.Error
	var msg string // the fan-out span's error; none when the shard answered
	switch {
	case err == nil:
	case errors.As(err, &perr):
		// The shard answered: it is up, just refusing. Relay its
		// envelope with the shard named in the message.
		perr.Envelope.Message = fmt.Sprintf("shard %s: %s", s.Name, perr.Envelope.Message)
	case errors.Is(err, api.ErrBodyTooLarge):
		// The shard is up, so this is a typed 502, not a transport failure.
		msg = fmt.Sprintf("shard %s: %s %s answer exceeds the %d-byte limit", s.Name, method, path, api.MaxBodyBytes)
		perr = &api.Error{Status: http.StatusBadGateway, Envelope: api.ErrorEnvelope{Code: api.CodeInternal, Message: msg}}
	default:
		msg = err.Error()
		g.proxyFailed(s.Name, err)
		perr = g.shardDown(s, err)
	}
	if fan.Valid() {
		g.cfg.Spans.Record(obs.Span{
			TraceID: fan.TraceID, SpanID: fan.SpanID, Parent: tc.SpanID,
			Name: obs.SpanFanout, Detail: s.Name, Err: msg,
			Start: t0, Duration: time.Since(t0),
		})
	}
	return hdr, data, perr, sent
}

func (g *Gate) shardDown(s Shard, cause error) *api.Error {
	msg := fmt.Sprintf("shard %s down", s.Name)
	if cause != nil && cause.Error() != "" {
		msg += ": " + cause.Error()
	}
	return &api.Error{Status: http.StatusServiceUnavailable, Envelope: api.ErrorEnvelope{
		Code: api.CodeShardDown, Message: msg}}
}

// decode parses a shard's answer; one that does not parse is a typed 502
// naming the shard (it is up and answering, just not in our dialect).
func decode[T any](s Shard, what string, data []byte) (T, *api.Error) {
	var v T
	err := api.Unmarshal(data, &v)
	return v, parseErr(s, what, err)
}

// parseErr is decode's 502 for a parse error err, nil for none.
func parseErr(s Shard, what string, err error) *api.Error {
	if err == nil {
		return nil
	}
	return &api.Error{Status: http.StatusBadGateway, Envelope: api.ErrorEnvelope{
		Code: api.CodeInternal, Message: fmt.Sprintf("shard %s: parse %s response: %v", s.Name, what, err)}}
}

// gather fetches one path from every listed shard concurrently and
// returns the decoded answers in shard order. All-or-nothing: a partial
// view would silently undercount, so any failing shard fails the whole
// read with its name in the envelope.
func gather[T any](g *Gate, ctx context.Context, shards []Shard, method, path string, body []byte) ([]T, *api.Error) {
	vals := make([]T, len(shards))
	errs := Scatter(shards, func(i int, s Shard) *api.Error {
		_, data, perr := g.call(ctx, s, method, path, body)
		if perr != nil {
			return perr
		}
		vals[i], perr = decode[T](s, method+" "+path, data)
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
	reqs, err := api.DecodeBody(r, api.DecodeAdmitRequests)
	if err != nil {
		api.WriteBadRequest(w, r, err)
		return
	}
	// Admissions always route by the newest map: during a transition
	// window a brand-new VM belongs on its new owner from minute one, so
	// the drain never has to move it.
	groups, err := SplitAdmits(g.topo.Load().cur, reqs)
	if err != nil {
		api.WriteBadRequest(w, r, err)
		return
	}
	resps := make([][]api.AdmitResponse, len(groups))
	errs := Scatter(groups, func(k int, grp AdmitGroup) *api.Error {
		body, err := api.EncodeAdmitRequests(grp.Requests)
		if err != nil {
			return &api.Error{Status: http.StatusInternalServerError, Envelope: api.ErrorEnvelope{
				Code: api.CodeInternal, Message: err.Error()}}
		}
		_, data, perr := g.call(r.Context(), grp.Shard, http.MethodPost, "/v1/vms", body)
		if perr != nil {
			return perr
		}
		resps[k], err = api.DecodeAdmitResponses(data)
		return parseErr(grp.Shard, "POST /v1/vms", err)
	})
	if perr := foldErrors(errs); perr != nil {
		api.RelayError(w, r, perr)
		return
	}
	mergeT0 := time.Now()
	out, err := JoinAdmits(groups, resps)
	if err != nil {
		api.WriteError(w, r, http.StatusBadGateway, api.CodeInternal, err)
		return
	}
	g.recordMerge(r.Context(), mergeT0)
	api.WriteJSON(w, http.StatusOK, out)
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
		api.WriteBadRequest(w, r, fmt.Errorf("bad vm id %q", r.PathValue("id")))
		return
	}
	_, data, perr := g.callOwner(r.Context(), id, http.MethodDelete, "/v1/vms/"+strconv.Itoa(id), nil)
	if perr != nil {
		api.RelayError(w, r, perr)
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
	body, err := api.ReadBody(r.Body)
	var req api.MigrateRequest
	if err == nil {
		req, err = api.DecodeMigrateRequest(body)
	}
	if err != nil {
		api.WriteBadRequest(w, r, err)
		return
	}
	s, data, perr := g.callOwner(r.Context(), req.VM, http.MethodPost, "/v1/migrations", body)
	if perr != nil {
		api.RelayError(w, r, perr)
		return
	}
	rec, perr := decode[api.MigrationRecord](s, "POST /v1/migrations", data)
	if perr != nil {
		api.RelayError(w, r, perr)
		return
	}
	rec.Shard = s.Name
	api.WriteJSON(w, http.StatusOK, rec)
}

// gatherRoute is the one all-or-nothing aggregate route, behind clock,
// consolidate, migrations and energy: snapshot the topology,
// validate what the gate itself relies on (check sees the body it will
// forward verbatim — nil on a GET — and the query), gather a T from every
// active shard with the request forwarded as it came, and answer with
// merge's fold of the parts or relay the failing shards' envelope. A
// partial view would silently undercount, so any failing shard fails the
// whole request; every such fan-out is safe to retry (the shard clock is
// monotonic, consolidation is idempotent at its fixpoint, the rest are
// reads).
func gatherRoute[T, R any](g *Gate, check func(body []byte, q url.Values) error, merge func(shards []Shard, parts []T, q url.Values) R) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		var err error
		if r.Method == http.MethodPost {
			body, err = api.ReadBody(r.Body)
		}
		q := r.URL.Query()
		if err == nil {
			err = check(body, q)
		}
		if err != nil {
			api.WriteBadRequest(w, r, err)
			return
		}
		shards := g.topo.Load().active()
		parts, perr := gather[T](g, r.Context(), shards, r.Method, r.URL.RequestURI(), body)
		if perr != nil {
			api.RelayError(w, r, perr)
			return
		}
		api.WriteJSON(w, http.StatusOK, merge(shards, parts, q))
	}
}

// ignoreQuery adapts a merge that needs nothing from the request.
func ignoreQuery[T, R any](merge func([]Shard, []T) R) func([]Shard, []T, url.Values) R {
	return func(shards []Shard, parts []T, _ url.Values) R { return merge(shards, parts) }
}

// checkBody validates a forwarded body with its api decoder: a body some
// shard would refuse is refused here, before the fan-out.
func checkBody[T any](parse func([]byte) (T, error)) func([]byte, url.Values) error {
	return func(body []byte, _ url.Values) error {
		_, err := parse(body)
		return err
	}
}

// checkInts validates the named query parameters the merge relies on:
// each, when present, must be a non-negative integer.
func checkInts(names ...string) func([]byte, url.Values) error {
	return func(_ []byte, q url.Values) error {
		errs := make([]error, len(names))
		for i, name := range names {
			_, errs[i] = api.QueryInt(q, name, 0)
		}
		return errors.Join(errs...)
	}
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
		api.RelayError(w, r, perr)
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

	b, err := api.EncodeState(&out)
	if err != nil {
		api.WriteError(w, r, http.StatusInternalServerError, api.CodeInternal, err)
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
	f, err := api.SpanFilterFromQuery(r.URL.Query())
	if err != nil {
		api.WriteBadRequest(w, r, err)
		return
	}
	// Gate spans are read before the fan-out so this request's own
	// fan-out spans do not pollute the answer.
	all := g.cfg.Spans.Spans(f)
	parts := Scatter(g.topo.Load().active(), func(_ int, s Shard) api.TracesResponse {
		_, data, _ := g.call(r.Context(), s, http.MethodGet, r.URL.RequestURI(), nil)
		tr, _ := decode[api.TracesResponse](s, "GET /v1/debug/traces", data)
		return tr // a failed shard contributes no spans
	})
	api.WriteJSON(w, http.StatusOK, MergeTraces(all, parts))
}

func (g *Gate) handleShards(w http.ResponseWriter, r *http.Request) {
	ts := g.topo.Load()
	hs := g.healthSnapshot(ts)
	api.WriteJSON(w, http.StatusOK, api.ShardsResponse{
		Epoch: ts.cur.Epoch(), Count: len(hs), Shards: hs,
	})
}

// handleHealthz is 200 only when every shard is healthy; a degraded
// gate says which shards are down so orchestration can route around it.
func (g *Gate) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var down []string
	for _, h := range g.healthSnapshot(g.topo.Load()) {
		if !h.Healthy {
			down = append(down, h.Name)
		}
	}
	if len(down) > 0 {
		api.WriteError(w, r, http.StatusServiceUnavailable, api.CodeShardDown,
			fmt.Errorf("shards down: %s", strings.Join(down, ", ")))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n") //nolint:errcheck // client gone
}

// handleMetrics scrapes every healthy shard's /metrics concurrently,
// merges the expositions under an injected shard label, and appends the
// gate's own families (vmalloc_gate_*). A down or failing shard (an answer
// over api.MaxBodyBytes fails) is skipped rather than failing the scrape —
// a down shard's absence is itself visible as vmalloc_gate_shard_up 0, and
// a payload the exposition reader refuses is skipped and logged.
func (g *Gate) handleMetrics(w http.ResponseWriter, r *http.Request) {
	shards := g.topo.Load().active()
	payloads := Scatter(shards, func(_ int, s Shard) []byte {
		_, data, _ := g.call(r.Context(), s, http.MethodGet, "/metrics", nil)
		return data // nil when the shard failed
	})
	var buf bytes.Buffer
	if err := MergeExpositions(&buf, shards, payloads); err != nil && g.cfg.Logger != nil {
		g.cfg.Logger.Warn("shard metrics skipped", "error", err.Error())
	}
	g.writeOwnMetrics(&buf)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes()) //nolint:errcheck // client gone
}

// writeOwnMetrics emits the gate's own families. They live under
// vmalloc_gate_* precisely so they can never collide with the shard
// families merged above (which include vmalloc_http_* and vmalloc_go_*
// from each shard).
func (g *Gate) writeOwnMetrics(w io.Writer) {
	g.writeHealthMetrics(w)
	g.writeRebalanceMetrics(w)
	g.metrics.Write(w, "vmalloc_gate_http")
	// The gate_ prefix keeps these from colliding with the shards'
	// vmalloc_trace_* families in the merged exposition above.
	g.cfg.Spans.WriteMetrics(w, "vmalloc_gate_trace")
	obs.WriteBuildInfo(w, "vmalloc_gate_build_info", "Build identity of the running vmgate binary (constant 1).")
}
