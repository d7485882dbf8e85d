package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmalloc/internal/api"
)

// client speaks the frozen /v1 wire to one vmserve or vmgate over a fixed
// number of keep-alive connections, timing every call from just before the
// request is written until the last body byte is read.
type client struct {
	base string
	hc   *http.Client
	// spans, when non-nil, gets one client span per call, and the call
	// carries it as traceparent so the daemons' spans join the same trace.
	spans *spanLog
	// reqBytes and respBytes count admit bodies for the bytes-per-VM
	// layer metrics.
	reqBytes, respBytes atomic.Int64
}

func newClient(base string, conns int, spans *spanLog) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, spans: spans}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one call's outcome.
type reply struct {
	status  int
	body    []byte
	header  http.Header
	latency time.Duration
	err     error // transport failure
}

// failed reports whether the call counts as a failed op: a transport error
// or any non-2xx answer.
func (r reply) failed() bool { return r.err != nil || r.status < 200 || r.status > 299 }

func (r reply) describe() string {
	if r.err != nil {
		return r.err.Error()
	}
	return api.DecodeError(r.status, r.body).Error()
}

// do issues one request. op names the client span ("admit", "release",
// "clock", "state", ...).
func (c *client) do(ctx context.Context, op, method, path string, body []byte) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return reply{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var sp clientSpan
	if c.spans != nil {
		sp = clientSpan{TraceID: randHex(16), SpanID: randHex(8), Name: "client." + op}
		req.Header.Set("traceparent", "00-"+sp.TraceID+"-"+sp.SpanID+"-01")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err, latency: time.Since(t0)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, body: b, header: resp.Header, latency: time.Since(t0), err: err}
	if c.spans != nil {
		sp.Start, sp.DurationNanos = t0, r.latency
		c.spans.add(sp)
	}
	return r
}

// admit posts one admission call carrying reqs.
func (c *client) admit(ctx context.Context, reqs []api.AdmitRequest) ([]api.AdmitResponse, reply) {
	var body []byte
	if len(reqs) == 1 {
		body, _ = json.Marshal(reqs[0]) // a single object is the single-VM wire form
	} else {
		body, _ = json.Marshal(reqs)
	}
	r := c.do(ctx, "admit", http.MethodPost, "/v1/vms", body)
	c.reqBytes.Add(int64(len(body)))
	c.respBytes.Add(int64(len(r.body)))
	if r.failed() {
		return nil, r
	}
	var out []api.AdmitResponse
	if err := json.Unmarshal(r.body, &out); err != nil {
		r.err = fmt.Errorf("decode admit response: %w", err)
	}
	return out, r
}

func (c *client) release(ctx context.Context, id int) reply {
	return c.do(ctx, "release", http.MethodDelete, "/v1/vms/"+strconv.Itoa(id), nil)
}

func (c *client) clock(ctx context.Context, now int) reply {
	return c.do(ctx, "clock", http.MethodPost, "/v1/clock", []byte(`{"now":`+strconv.Itoa(now)+`}`))
}

// stateView is the part of GET /v1/state the checks and metrics need,
// common to a vmserve's answer and a vmgate's merged one.
type stateView struct {
	now         int
	admitted    int
	released    int
	totalEnergy float64
	digest      string
	residents   []residentObs
}

// residentObs is one resident VM as a state read shows it.
type residentObs struct {
	id     int
	shard  int // index of the shard's fleet; 0 on a single vmserve
	server int // index into that shard's fleet list
}

// state reads GET /v1/state. gate says whether the target is a vmgate;
// shardIndex maps a shard name to its fleet index.
func (c *client) state(ctx context.Context, gate bool, shardIndex map[string]int) (*stateView, reply) {
	r := c.do(ctx, "state", http.MethodGet, "/v1/state", nil)
	if r.failed() {
		return nil, r
	}
	v := &stateView{digest: r.header.Get(api.StateDigestHeader)}
	if !gate {
		var st api.StateResponse
		if err := json.Unmarshal(r.body, &st); err != nil {
			r.err = fmt.Errorf("decode state: %w", err)
			return nil, r
		}
		v.now, v.admitted, v.released, v.totalEnergy = st.Now, st.Admitted, st.Released, st.TotalEnergy
		for _, p := range st.VMs {
			v.residents = append(v.residents, residentObs{id: p.VM.ID, server: p.Server})
		}
		return v, r
	}
	var gs api.GateStateResponse
	if err := json.Unmarshal(r.body, &gs); err != nil {
		r.err = fmt.Errorf("decode gate state: %w", err)
		return nil, r
	}
	v.now, v.admitted, v.released, v.totalEnergy = gs.Now, gs.Admitted, gs.Released, gs.TotalEnergy
	for _, sh := range gs.Shards {
		idx, ok := shardIndex[sh.Shard]
		if !ok || sh.State == nil {
			r.err = fmt.Errorf("gate state: unknown or empty shard %q", sh.Shard)
			return nil, r
		}
		for _, p := range sh.State.VMs {
			v.residents = append(v.residents, residentObs{id: p.VM.ID, shard: idx, server: p.Server})
		}
	}
	return v, r
}

func (c *client) consolidate(ctx context.Context) (*api.ConsolidateResponse, reply) {
	r := c.do(ctx, "consolidate", http.MethodPost, "/v1/consolidate", []byte(`{}`))
	if r.failed() {
		return nil, r
	}
	var out api.ConsolidateResponse
	if err := json.Unmarshal(r.body, &out); err != nil {
		r.err = fmt.Errorf("decode consolidate response: %w", err)
	}
	return &out, r
}

// promMetrics is a parsed Prometheus text exposition: series (name plus
// label set, verbatim) to value.
type promMetrics map[string]float64

// metrics scrapes GET /metrics.
func (c *client) metrics(ctx context.Context) (promMetrics, error) {
	r := c.do(ctx, "metrics", http.MethodGet, "/metrics", nil)
	if r.failed() {
		return nil, fmt.Errorf("scrape /metrics: %s", r.describe())
	}
	return parseProm(string(r.body)), nil
}

func parseProm(text string) promMetrics {
	m := promMetrics{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// sum adds every series of a family whose name-and-labels contains all of
// the given fragments — how one family is read across a gate's per-shard
// labels.
func (m promMetrics) sum(family string, fragments ...string) float64 {
	var total float64
series:
	for k, v := range m {
		if k != family && !strings.HasPrefix(k, family+"{") {
			continue
		}
		for _, f := range fragments {
			if !strings.Contains(k, f) {
				continue series
			}
		}
		total += v
	}
	return total
}

// traces pulls the daemon's span store.
func (c *client) traces(ctx context.Context) (*api.TracesResponse, error) {
	r := c.do(ctx, "traces", http.MethodGet, "/v1/debug/traces", nil)
	if r.failed() {
		return nil, fmt.Errorf("pull /v1/debug/traces: %s", r.describe())
	}
	var out api.TracesResponse
	if err := json.Unmarshal(r.body, &out); err != nil {
		return nil, fmt.Errorf("decode traces: %w", err)
	}
	return &out, nil
}

func randHex(n int) string {
	b := make([]byte, n)
	rand.Read(b) //nolint:errcheck // crypto/rand.Read never fails on Linux
	return hex.EncodeToString(b)
}

// clientSpan is one call as the generator saw it: the root of that op's
// trace.
type clientSpan struct {
	TraceID       string        `json:"traceId"`
	SpanID        string        `json:"spanId"`
	Parent        string        `json:"parent,omitempty"`
	Name          string        `json:"name"`
	Process       string        `json:"process,omitempty"`
	Detail        string        `json:"detail,omitempty"`
	Start         time.Time     `json:"start"`
	DurationNanos time.Duration `json:"durationNanos"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []clientSpan
}

func (l *spanLog) add(sp clientSpan) {
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
}
