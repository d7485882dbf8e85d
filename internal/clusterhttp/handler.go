// Package clusterhttp is the HTTP face of the cluster allocation
// service: the handler cmd/vmserve mounts, shared with the in-process
// test harnesses (the loadgen soak tests boot it on httptest servers) so
// load generators and the production daemon exercise byte-identical
// routing, decoding and error mapping. The endpoints, their bodies and
// the error codes are the wire contract documented once, in the
// internal/api package comment; the cluster speaks those types itself,
// and every body read, query parse and envelope write goes through the
// edge kit in internal/api, so this package is routing plus the mapping
// from cluster errors to codes (classify).
//
// What is vmserve-specific is the passive topology-epoch fence: a request
// carrying an X-Vmalloc-Epoch header ratchets the shard's highest-seen
// epoch up, and one carrying an epoch below that high-water mark is
// refused with 409 stale_epoch before it reaches the cluster — a gate or
// client still routing on a superseded shard set learns so from the first
// shard the newer topology has touched, instead of silently splitting
// residency across two views. Headerless requests pass unfenced. The
// fence is in-memory only (not journaled): after a shard restart the
// first stamped request re-establishes it, and the worst case of the
// gap is a stale writer succeeding where it would have been told to
// refresh — safety never depends on the fence, only staleness-detection
// latency does.
package clusterhttp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/obs"
)

// New builds the service's HTTP API around a cluster. The whole mux is
// wrapped in obs.Middleware, so every route is traced, counted and timed;
// log receives the access log and handler errors (nil discards). The
// debug routes, the route spans and the /metrics families come from the
// sinks the cluster was opened with (Cluster.Telemetry).
func New(c *cluster.Cluster, log *slog.Logger) http.Handler {
	recorder, spans, energy := c.Telemetry()
	metrics := obs.NewHTTPMetrics()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/vms", func(w http.ResponseWriter, r *http.Request) {
		// The decode span rides the context into the batch, so the
		// decision the cluster records carries the full stage breakdown.
		reqs, ctx, ok := decode(w, r, api.DecodeAdmitRequests)
		if !ok {
			return
		}
		adms, err := c.Admit(ctx, reqs)
		reply(w, r, adms, err)
	})
	mux.HandleFunc("DELETE /v1/vms/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			api.WriteBadRequest(w, r, fmt.Errorf("bad vm id %q", r.PathValue("id")))
			return
		}
		p, err := c.Release(r.Context(), id)
		reply(w, r, api.ReleaseResponse{VM: p.VM, Server: p.Server, Start: p.Start}, err)
	})
	mux.HandleFunc("POST /v1/clock", func(w http.ResponseWriter, r *http.Request) {
		req, _, ok := decode(w, r, api.DecodeClockRequest)
		if !ok {
			return
		}
		err := c.AdvanceTo(*req.Now)
		reply(w, r, api.ClockResponse{Now: c.Now()}, err)
	})
	mux.HandleFunc("POST /v1/migrations", func(w http.ResponseWriter, r *http.Request) {
		req, ctx, ok := decode(w, r, api.DecodeMigrateRequest)
		if !ok {
			return
		}
		rec, err := c.Migrate(ctx, req.VM, *req.Server)
		reply(w, r, rec, err)
	})
	mux.HandleFunc("GET /v1/migrations", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		vm, err1 := api.QueryInt(q, "vm", 0)
		limit, err2 := api.QueryInt(q, "limit", 0)
		if err := errors.Join(err1, err2); err != nil {
			api.WriteBadRequest(w, r, err)
			return
		}
		count, hist := c.Migrations()
		if vm > 0 {
			kept := hist[:0]
			for _, m := range hist {
				if m.VM == vm {
					kept = append(kept, m)
				}
			}
			hist = kept
		}
		if limit > 0 && len(hist) > limit {
			hist = hist[len(hist)-limit:]
		}
		api.WriteJSON(w, http.StatusOK, api.MigrationsResponse{Count: count, Migrations: hist})
	})
	mux.HandleFunc("POST /v1/adoptions", func(w http.ResponseWriter, r *http.Request) {
		req, ctx, ok := decode(w, r, api.DecodeAdoptRequest)
		if !ok {
			return
		}
		p, handoff, err := c.Adopt(ctx, req.VM, req.Start)
		reply(w, r, api.AdoptResponse{
			VM:      p.VM.ID,
			Server:  p.Server,
			Start:   p.Start,
			End:     p.End(),
			Handoff: handoff,
		}, err)
	})
	mux.HandleFunc("POST /v1/consolidate", func(w http.ResponseWriter, r *http.Request) {
		req, ctx, ok := decode(w, r, api.DecodeConsolidateRequest)
		if !ok {
			return
		}
		res, err := c.Consolidate(ctx, req)
		reply(w, r, res, err)
	})
	mux.HandleFunc("GET /v1/state", func(w http.ResponseWriter, r *http.Request) {
		b, err := c.StateJSON()
		if err != nil {
			api.WriteError(w, r, http.StatusInternalServerError, api.CodeInternal, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(api.StateDigestHeader, api.DigestBytes(b))
		w.Write(b) //nolint:errcheck // client gone
	})
	mux.HandleFunc("GET /v1/debug/decisions", func(w http.ResponseWriter, r *http.Request) {
		f, err := parseDecisionFilter(r)
		if err != nil {
			api.WriteBadRequest(w, r, err)
			return
		}
		ds := recorder.Select(f.Limit, f.Match)
		if ds == nil {
			ds = []obs.Decision{} // an empty recorder is [], not null
		}
		api.WriteJSON(w, http.StatusOK, api.DecisionsResponse{Count: len(ds), Decisions: ds})
	})
	mux.HandleFunc("GET /v1/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		f, err := api.SpanFilterFromQuery(r.URL.Query())
		if err != nil {
			api.WriteBadRequest(w, r, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, api.NewTracesResponse(spans.Select(f.Limit, f.Match)))
	})
	mux.HandleFunc("GET /v1/debug/energy", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		since, err1 := api.QueryInt(q, "since", -1)
		limit, err2 := api.QueryInt(q, "limit", 0)
		if err := errors.Join(err1, err2); err != nil {
			api.WriteBadRequest(w, r, err)
			return
		}
		samples, last, _ := energy.Samples(since, limit)
		resp := api.EnergyResponse{Samples: samples, Count: len(samples), Now: last.Clock, TotalWattMinutes: last.TotalWattMinutes}
		if resp.Samples == nil {
			resp.Samples = []obs.EnergySample{}
		}
		api.WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := c.WriteMetrics(w); err != nil {
			// Headers are gone; nothing better than logging via the
			// connection error path.
			return
		}
		metrics.Write(w, "vmalloc_http")
		obs.WriteSpanMetrics(w, spans, "vmalloc_trace")
		energy.WriteMetrics(w)
		obs.WriteRuntimeMetrics(w)
		obs.WriteBuildInfo(w, "vmalloc_build_info", "Build identity of the running binary (constant 1).")
	})
	return obs.Middleware(epochFence(mux), log, metrics, spans)
}

// decode reads and parses a request body through the shared edge,
// writing the 413/400 refusal itself (ok false). The returned context
// carries the time the decode took, for the pipeline's stage breakdown.
func decode[T any](w http.ResponseWriter, r *http.Request, parse func([]byte) (T, error)) (T, context.Context, bool) {
	t0 := time.Now()
	v, err := api.DecodeBody(r, parse)
	if err != nil {
		api.WriteBadRequest(w, r, err)
		return v, nil, false
	}
	return v, obs.WithDecodeSpan(r.Context(), time.Since(t0)), true
}

// reply writes a cluster call's outcome: its value, or the envelope its
// typed error classifies to.
func reply(w http.ResponseWriter, r *http.Request, v any, err error) {
	if err != nil {
		status, code := classify(err)
		api.WriteError(w, r, status, code, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, v)
}

// epochFence is the passive stale-topology guard: requests carrying an
// X-Vmalloc-Epoch header ratchet the highest epoch this handler has
// seen, and a request below the high-water mark is refused with 409
// stale_epoch. The compare-and-swap loop keeps the ratchet monotone
// under concurrent stamped requests.
func epochFence(next http.Handler) http.Handler {
	var fence atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get(api.EpochHeader); v != "" {
			e, err := strconv.ParseInt(v, 10, 64)
			if err != nil || e < 0 {
				api.WriteBadRequest(w, r, fmt.Errorf("bad %s %q", api.EpochHeader, v))
				return
			}
			for {
				cur := fence.Load()
				if e < cur {
					api.WriteError(w, r, http.StatusConflict, api.CodeStaleEpoch,
						fmt.Errorf("request epoch %d is stale: this shard has seen epoch %d", e, cur))
					return
				}
				if e == cur || fence.CompareAndSwap(cur, e) {
					break
				}
			}
		}
		next.ServeHTTP(w, r)
	})
}

// classify maps the cluster's typed errors onto (HTTP status, envelope
// code). The codes are the contract: clients and the vmgate router
// branch on them, never on message text.
func classify(err error) (int, string) {
	switch {
	case errors.Is(err, cluster.ErrJournalBroken):
		return http.StatusServiceUnavailable, api.CodeJournalBroken
	case errors.Is(err, cluster.ErrClosed):
		return http.StatusServiceUnavailable, api.CodeOverloaded
	case errors.As(err, new(*cluster.NotResidentError)):
		return http.StatusNotFound, api.CodeNotResident
	case errors.As(err, new(*cluster.MigrationInfeasibleError)):
		return http.StatusConflict, api.CodeMigrationInfeasible
	// Adoptions share migration_infeasible: both are identity-preserving
	// moves the fleet's current state cannot satisfy, and the gate's
	// rebalancer treats the code as "skip this move".
	case errors.As(err, new(*cluster.AdoptInfeasibleError)):
		return http.StatusConflict, api.CodeMigrationInfeasible
	case errors.Is(err, cluster.ErrConsolidationBusy):
		return http.StatusConflict, api.CodeConsolidationBusy
	default:
		return http.StatusInternalServerError, api.CodeInternal
	}
}

// parseDecisionFilter maps the debug endpoint's query parameters onto an
// obs.Filter.
func parseDecisionFilter(r *http.Request) (obs.Filter, error) {
	var f obs.Filter
	q := r.URL.Query()
	var errs [3]error
	f.VM, errs[0] = api.QueryInt(q, "vm", 0)
	f.Server, errs[1] = api.QueryInt(q, "server", 0)
	f.Limit, errs[2] = api.QueryInt(q, "limit", 0)
	if err := errors.Join(errs[:]...); err != nil {
		return f, err
	}
	switch op := q.Get("op"); op {
	case "", obs.OpAdmit, obs.OpReject, obs.OpRelease, obs.OpMigrate, obs.OpAdopt:
		f.Op = op
	default:
		return f, fmt.Errorf("bad op %q (want admit, reject, release, migrate or adopt)", op)
	}
	return f, nil
}
