package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/obs"
)

// The client's retry policy: a failed attempt is retried twice, after
// 50 then 100 ms, and each attempt is bounded by attemptTimeout.
const (
	attemptTimeout = 10 * time.Second
	retries        = 2
	backoff        = 50 * time.Millisecond
)

// Client is a typed HTTP client for the vmserve API
// (internal/clusterhttp): POST/DELETE /v1/vms, POST /v1/clock,
// GET /v1/state, /healthz and /metrics, with a per-attempt timeout and
// bounded exponential-backoff retries on transport errors and 5xx
// responses.
//
// Admission retries are safe because every generated request carries an
// explicit VM ID — the ID doubles as an idempotency key: if the first
// attempt landed but its response was lost, the retry comes back as an
// "already resident" rejection, which the client folds back into an
// accepted outcome.
//
// Every mutating call is stamped with a fresh X-Request-Id, reused
// verbatim across its retries, so a soak failure is traceable end to end:
// the server's flight recorder (GET /v1/debug/decisions) shows the same
// id the client issued.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client

	// retried counts attempts beyond the first; read via Retried. Atomic:
	// the runner's worker pool shares one client.
	retried atomic.Int64
}

// NewClient returns a client for the server rooted at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Retried returns how many retry attempts the client has issued.
func (c *Client) Retried() int { return int(c.retried.Load()) }

// retryable reports whether another attempt could change the outcome:
// transport errors (connection refused/reset, timeouts) and 5xx
// responses; 4xx outcomes are deterministic and final.
func retryable(err error) bool {
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae.Status >= 500
	}
	return err != nil
}

// do issues one method+path request with the retry policy, decoding a
// 2xx JSON body into out (unless out is nil; an admit answer through the
// admit codec, the rest through encoding/json). body is re-sent on every
// attempt, and every attempt carries the same freshly minted request id.
// The returned bool reports whether this call went beyond its first
// attempt (callers use it for the admission idempotency fold).
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) (bool, error) {
	reqID := obs.NewRequestID()
	// One root trace per logical call: retries share the trace id, so a
	// retried admission's attempts stitch into one tree server-side.
	root := obs.NewTraceContext()
	var lastErr error
	delay := backoff
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			c.retried.Add(1)
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return attempt > 1, ctx.Err()
			}
			delay *= 2
		}
		lastErr = c.attempt(ctx, method, path, reqID, root, body, out)
		if lastErr == nil || !retryable(lastErr) || ctx.Err() != nil {
			return attempt > 0, lastErr
		}
	}
	return true, lastErr
}

func (c *Client) attempt(ctx context.Context, method, path, reqID string, root obs.TraceContext, body []byte, out any) error {
	_, data, err := c.roundTrip(ctx, method, path, reqID, root, body)
	if err != nil || out == nil {
		return err
	}
	if adms, ok := out.(*[]api.AdmitResponse); ok {
		*adms, err = api.DecodeAdmitResponses(data)
		return err
	}
	return json.Unmarshal(data, out)
}

// roundTrip issues one request under the per-attempt timeout and returns
// a 2xx answer's headers and body (api.Call, up to 64 MiB). reqID, root
// and body are optional.
func (c *Client) roundTrip(ctx context.Context, method, path, reqID string, root obs.TraceContext, body []byte) (http.Header, []byte, error) {
	actx, cancel := context.WithTimeout(ctx, attemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.Base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if reqID != "" {
		req.Header.Set(obs.RequestIDHeader, reqID)
	}
	if root.Valid() {
		req.Header.Set(obs.TraceParentHeader, root.Header())
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return api.Call(c.httpClient(), req, 64<<20)
}

// Admit submits a batch of admission requests and returns the per-request
// outcomes in request order. An answer at a position whose request named
// an explicit id must carry that id; one for another VM is an error
// naming the position. A retried batch whose first attempt landed
// reports its requests as accepted via the idempotency fold (see Client).
func (c *Client) Admit(ctx context.Context, reqs []api.AdmitRequest) ([]api.AdmitResponse, error) {
	body, err := api.EncodeAdmitRequests(reqs)
	if err != nil {
		return nil, err
	}
	var adms []api.AdmitResponse
	retried, err := c.do(ctx, http.MethodPost, "/v1/vms", body, &adms)
	if err != nil {
		return nil, err
	}
	if len(adms) != len(reqs) {
		return nil, fmt.Errorf("loadgen: %d admissions for %d requests", len(adms), len(reqs))
	}
	for i := range adms {
		if want := reqs[i].ID; want != 0 && adms[i].ID != want {
			return nil, fmt.Errorf("loadgen: answer %d is for vm %d, its request was for vm %d", i, adms[i].ID, want)
		}
		// After a retry, an "already resident" rejection means an earlier
		// attempt admitted the VM and only its response was lost.
		if retried && !adms[i].Accepted && strings.Contains(adms[i].Reason, "already resident") {
			adms[i].Accepted = true
			adms[i].Reason = "admitted by an earlier attempt (idempotent retry)"
		}
	}
	return adms, nil
}

// Release removes a resident VM. released is false when the server does
// not know the VM (404) — already departed, already released, or never
// admitted. A 404 on a retried call counts as released: the first
// attempt landed and only its response was lost (the idempotency fold,
// as in Admit).
func (c *Client) Release(ctx context.Context, id int) (released bool, err error) {
	retried, err := c.do(ctx, http.MethodDelete, fmt.Sprintf("/v1/vms/%d", id), nil, nil)
	var ae *api.Error
	if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
		return retried, nil
	}
	return err == nil, err
}

// AdvanceClock moves the fleet clock to minute now (earlier minutes are a
// server-side no-op) and returns the resulting clock.
func (c *Client) AdvanceClock(ctx context.Context, now int) (int, error) {
	body, err := json.Marshal(api.ClockRequest{Now: &now})
	if err != nil {
		return 0, err
	}
	var resp api.ClockResponse
	if _, err := c.do(ctx, http.MethodPost, "/v1/clock", body, &resp); err != nil {
		return 0, err
	}
	return resp.Now, nil
}

// Consolidate runs one consolidation pass (POST /v1/consolidate).
// Idempotent by the pay-for-itself rule: a pass that already drained
// everything profitable leaves nothing for a replayed pass to move, so
// retries are safe — except a 409 consolidation_busy, which means a
// pass (possibly this call's first attempt) is still running and is
// returned as the error for the caller to back off on.
func (c *Client) Consolidate(ctx context.Context, req api.ConsolidateRequest) (*api.ConsolidateResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp := new(api.ConsolidateResponse)
	if _, err := c.do(ctx, http.MethodPost, "/v1/consolidate", body, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// state fetches GET /v1/state into a T, with its digest: the header, or
// api.DigestBytes over the body when the server sent none.
func state[T any](ctx context.Context, c *Client) (*T, string, error) {
	hdr, data, err := c.roundTrip(ctx, http.MethodGet, "/v1/state", "", obs.TraceContext{}, nil)
	if err != nil {
		return nil, "", err
	}
	digest := hdr.Get(api.StateDigestHeader)
	if digest == "" {
		digest = api.DigestBytes(data)
	}
	st := new(T)
	if err := api.Unmarshal(data, st); err != nil {
		return nil, "", err
	}
	return st, digest, nil
}

// get fetches GET path?query, or path alone for an empty query, into a T.
func get[T any](ctx context.Context, c *Client, path, query string) (*T, error) {
	if query != "" {
		path += "?" + query
	}
	resp := new(T)
	if _, err := c.do(ctx, http.MethodGet, path, nil, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// StateSummary fetches the few cross-cutting facts the runner reports
// on, from either topology: a vmserve's api.StateResponse (residents
// counted from its vms array) or a vmgate's api.GateStateResponse
// (which carries an explicit residents field). The probe decode reads
// only the shared field names, so it does not care which it hit.
func (c *Client) StateSummary(ctx context.Context) (StateSummary, error) {
	probe, digest, err := state[struct {
		Now         int               `json:"now"`
		Residents   *int              `json:"residents"`
		TotalEnergy float64           `json:"totalEnergyWattMinutes"`
		VMs         []json.RawMessage `json:"vms"`
	}](ctx, c)
	if err != nil {
		return StateSummary{}, err
	}
	residents := len(probe.VMs)
	if probe.Residents != nil {
		residents = *probe.Residents
	}
	return StateSummary{
		Now:         probe.Now,
		Residents:   residents,
		TotalEnergy: probe.TotalEnergy,
		Digest:      digest,
	}, nil
}

// DebugTraces fetches the server's span store (GET /v1/debug/traces),
// grouped into one tree per trace id. query is a raw query string such
// as "name=fsync&limit=100", or "" for everything buffered.
func (c *Client) DebugTraces(ctx context.Context, query string) (*api.TracesResponse, error) {
	return get[api.TracesResponse](ctx, c, "/v1/debug/traces", query)
}

// Metrics scrapes /metrics and reads it with ParseMetrics, which folds
// a gate's shard series into the names a single vmserve exports.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	_, data, err := c.roundTrip(ctx, http.MethodGet, "/metrics", "", obs.TraceContext{}, nil)
	if err != nil {
		return nil, err
	}
	return ParseMetrics(data)
}

// WaitReady polls /healthz until the server answers 2xx, the context
// ends, or the deadline d passes.
func (c *Client) WaitReady(ctx context.Context, d time.Duration) error {
	deadline := time.Now().Add(d)
	var lastErr error
	for {
		actx, cancel := context.WithTimeout(ctx, time.Second)
		req, err := http.NewRequestWithContext(actx, http.MethodGet, c.Base+"/healthz", nil)
		if err != nil {
			cancel()
			return err
		}
		_, _, err = api.Call(c.httpClient(), req, 64<<20)
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: %s not ready after %s: %w", c.Base, d, lastErr)
		}
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
