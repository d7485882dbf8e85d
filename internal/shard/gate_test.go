package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
	"vmalloc/internal/promlint"
)

// testDeployment is a two-shard deployment for gate tests: real
// clusters behind real handlers, fronted by one gate.
type testDeployment struct {
	gate     *Gate
	gateSrv  *httptest.Server
	m        *Map
	shardSrv map[string]*httptest.Server
}

func newDeployment(t *testing.T) *testDeployment {
	t.Helper()
	shardSrv := make(map[string]*httptest.Server, 2)
	var shards []Shard
	for i, name := range []string{"s0", "s1"} {
		servers := make([]model.Server, 8)
		for j := range servers {
			servers[j] = model.Server{
				ID:             100*(i+1) + j,
				Capacity:       model.Resources{CPU: 10, Mem: 16},
				PIdle:          100,
				PPeak:          200,
				TransitionTime: 1,
			}
		}
		rec := obs.NewFlightRecorder(64)
		c, err := cluster.Open(cluster.Config{Servers: servers, IdleTimeout: 2, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		srv := httptest.NewServer(clusterhttp.New(c, nil))
		t.Cleanup(srv.Close)
		shardSrv[name] = srv
		shards = append(shards, Shard{Name: name, Addr: srv.URL})
	}
	m, err := NewMap(shards)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGate(m, Config{})
	gateSrv := httptest.NewServer(g.Handler())
	t.Cleanup(gateSrv.Close)
	return &testDeployment{gate: g, gateSrv: gateSrv, m: m, shardSrv: shardSrv}
}

// idsFor returns n VM ids that the map routes to the named shard.
func (d *testDeployment) idsFor(name string, n int) []int {
	var ids []int
	for id := 1; len(ids) < n; id++ {
		if d.m.Assign(id).Name == name {
			ids = append(ids, id)
		}
	}
	return ids
}

func admitBody(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf(`{"id":%d,"demand":{"cpu":1,"mem":1},"durationMinutes":60}`, id)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func decodeEnvelope(t *testing.T, resp *http.Response) api.ErrorEnvelope {
	t.Helper()
	defer resp.Body.Close()
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode error envelope: %v", err)
	}
	return env
}

func shardState(t *testing.T, srv *httptest.Server) (*api.StateResponse, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st api.StateResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return &st, resp.Header.Get(api.StateDigestHeader)
}

// TestGateAdmitRouting: a batch spanning both shards is split, admitted,
// and reassembled in request order — and every VM lands resident on
// exactly the shard its ID hashes to.
func TestGateAdmitRouting(t *testing.T) {
	d := newDeployment(t)
	ids := make([]int, 20)
	for i := range ids {
		ids[i] = i + 1
	}
	resp, err := http.Post(d.gateSrv.URL+"/v1/vms", "application/json", strings.NewReader(admitBody(ids)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("admit status %d: %s", resp.StatusCode, body)
	}
	var adms []api.AdmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&adms); err != nil {
		t.Fatal(err)
	}
	if len(adms) != len(ids) {
		t.Fatalf("got %d responses for %d requests", len(adms), len(ids))
	}
	for i, a := range adms {
		if a.ID != ids[i] {
			t.Errorf("response %d is for vm %d, want %d (request order lost)", i, a.ID, ids[i])
		}
		if !a.Accepted {
			t.Errorf("vm %d rejected: %s", a.ID, a.Reason)
		}
	}

	resident := make(map[string]map[int]bool, 2)
	for name, srv := range d.shardSrv {
		st, _ := shardState(t, srv)
		resident[name] = make(map[int]bool)
		for _, p := range st.VMs {
			resident[name][p.VM.ID] = true
		}
	}
	for _, id := range ids {
		owner := d.m.Assign(id).Name
		if !resident[owner][id] {
			t.Errorf("vm %d not resident on its owning shard %s", id, owner)
		}
		for name, vms := range resident {
			if name != owner && vms[id] {
				t.Errorf("vm %d resident on non-owning shard %s", id, name)
			}
		}
	}
}

// TestGateRequiresExplicitIDs: an admission without an id cannot be
// routed and is refused up front with a bad_request envelope.
func TestGateRequiresExplicitIDs(t *testing.T) {
	d := newDeployment(t)
	resp, err := http.Post(d.gateSrv.URL+"/v1/vms", "application/json",
		strings.NewReader(`{"demand":{"cpu":1,"mem":1},"durationMinutes":60}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	env := decodeEnvelope(t, resp)
	if env.Code != api.CodeBadRequest || env.RequestID == "" {
		t.Errorf("envelope %+v", env)
	}
}

// TestGateStateAggregation: the gate's state is the union of the
// shards' states, and its digest is CombineDigests over the per-shard
// digests the shards themselves serve.
func TestGateStateAggregation(t *testing.T) {
	d := newDeployment(t)
	ids := make([]int, 12)
	for i := range ids {
		ids[i] = i + 1
	}
	resp, err := http.Post(d.gateSrv.URL+"/v1/vms", "application/json", strings.NewReader(admitBody(ids)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(d.gateSrv.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var gs api.GateStateResponse
	if err := json.Unmarshal(body, &gs); err != nil {
		t.Fatal(err)
	}
	if gs.Admitted != len(ids) || gs.Residents != len(ids) {
		t.Errorf("admitted %d residents %d, want %d each", gs.Admitted, gs.Residents, len(ids))
	}
	if len(gs.Shards) != 2 {
		t.Fatalf("got %d shard states, want 2", len(gs.Shards))
	}

	digests := make(map[string]string, 2)
	var sumAdmitted int
	for name, srv := range d.shardSrv {
		st, digest := shardState(t, srv)
		digests[name] = digest
		sumAdmitted += st.Admitted
	}
	if sumAdmitted != gs.Admitted {
		t.Errorf("gate admitted %d, per-shard union %d", gs.Admitted, sumAdmitted)
	}
	want := CombineDigests(digests)
	if gs.Digest != want {
		t.Errorf("combined digest %s, want %s (union of per-shard digests)", gs.Digest, want)
	}
	if hdr := resp.Header.Get(api.StateDigestHeader); hdr != want {
		t.Errorf("digest header %s, want %s", hdr, want)
	}
	for _, ss := range gs.Shards {
		if digests[ss.Shard] != ss.Digest {
			t.Errorf("shard %s digest %s in gate state, %s from the shard", ss.Shard, ss.Digest, digests[ss.Shard])
		}
	}
}

// TestGateClockFanOut: one advance through the gate moves every shard's
// clock, and the gate reports the slowest one.
func TestGateClockFanOut(t *testing.T) {
	d := newDeployment(t)
	resp, err := http.Post(d.gateSrv.URL+"/v1/clock", "application/json", strings.NewReader(`{"now":45}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clock status %d", resp.StatusCode)
	}
	var cr api.ClockResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Now != 45 {
		t.Errorf("gate clock %d, want 45", cr.Now)
	}
	for name, srv := range d.shardSrv {
		st, _ := shardState(t, srv)
		if st.Now != 45 {
			t.Errorf("shard %s clock %d, want 45", name, st.Now)
		}
	}
}

// TestGateRelease: releases route to the owning shard; releasing an
// unknown VM relays the shard's not_resident envelope with the shard
// named.
func TestGateRelease(t *testing.T) {
	d := newDeployment(t)
	id := d.idsFor("s1", 1)[0]
	resp, err := http.Post(d.gateSrv.URL+"/v1/vms", "application/json", strings.NewReader(admitBody([]int{id})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/vms/%d", d.gateSrv.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release status %d", resp.StatusCode)
	}
	var rel api.ReleaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&rel); err != nil {
		t.Fatal(err)
	}
	if rel.VM.ID != id {
		t.Errorf("released vm %d, want %d", rel.VM.ID, id)
	}
	st, _ := shardState(t, d.shardSrv["s1"])
	for _, p := range st.VMs {
		if p.VM.ID == id {
			t.Errorf("vm %d still resident after release", id)
		}
	}

	req, _ = http.NewRequest(http.MethodDelete, d.gateSrv.URL+"/v1/vms/999999", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown release status %d, want 404", resp.StatusCode)
	}
	env := decodeEnvelope(t, resp)
	owner := d.m.Assign(999999).Name
	if env.Code != api.CodeNotResident || !strings.Contains(env.Message, "shard "+owner) {
		t.Errorf("envelope %+v, want not_resident naming shard %s", env, owner)
	}
}

// TestGateFailover: killing one shard degrades only its key range —
// requests for the dead shard's IDs get scoped shard_down envelopes,
// requests for the live shard keep succeeding, and the health surfaces
// (healthz, /v1/shards, shard_up gauge) all say which shard died.
func TestGateFailover(t *testing.T) {
	d := newDeployment(t)
	d.shardSrv["s1"].Close()
	d.gate.Prober().CheckNow(context.Background())

	deadID := d.idsFor("s1", 1)[0]
	liveID := d.idsFor("s0", 1)[0]

	resp, err := http.Post(d.gateSrv.URL+"/v1/vms", "application/json", strings.NewReader(admitBody([]int{deadID})))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead-shard admit status %d, want 503", resp.StatusCode)
	}
	env := decodeEnvelope(t, resp)
	if env.Code != api.CodeShardDown || !strings.Contains(env.Message, "shard s1") {
		t.Errorf("envelope %+v, want shard_down naming s1", env)
	}

	resp, err = http.Post(d.gateSrv.URL+"/v1/vms", "application/json", strings.NewReader(admitBody([]int{liveID})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live-shard admit status %d, want 200 (down shard must not take s0 with it)", resp.StatusCode)
	}
	var adms []api.AdmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&adms); err != nil {
		t.Fatal(err)
	}
	if len(adms) != 1 || !adms[0].Accepted {
		t.Errorf("live-shard admit %+v", adms)
	}

	// A batch spanning both shards fails as a whole, naming the dead one.
	resp, err = http.Post(d.gateSrv.URL+"/v1/vms", "application/json",
		strings.NewReader(admitBody([]int{d.idsFor("s0", 2)[1], d.idsFor("s1", 2)[1]})))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("spanning admit status %d, want 503", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Code != api.CodeShardDown || !strings.Contains(env.Message, "s1") {
		t.Errorf("spanning envelope %+v", env)
	}

	// Aggregated state is all-or-nothing.
	resp, err = http.Get(d.gateSrv.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("state status %d, want 503", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Code != api.CodeShardDown {
		t.Errorf("state envelope %+v", env)
	}

	// Health surfaces.
	resp, err = http.Get(d.gateSrv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Get(d.gateSrv.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	var shs api.ShardsResponse
	if err := json.NewDecoder(resp.Body).Decode(&shs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	byName := map[string]api.ShardHealth{}
	for _, h := range shs.Shards {
		byName[h.Name] = h
	}
	if byName["s0"].Healthy != true || byName["s1"].Healthy != false || byName["s1"].Error == "" {
		t.Errorf("shard health %+v", shs.Shards)
	}

	// A proxied call that reaches the dead shard is a proxy error and marks
	// it down again; a live shard's refusal is no proxy error.
	d.gate.Prober().MarkUp("s1")
	resp, err = http.Get(d.gateSrv.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	if env := decodeEnvelope(t, resp); resp.StatusCode != http.StatusServiceUnavailable || env.Code != api.CodeShardDown {
		t.Fatalf("state through a dead shard believed up: %d %+v", resp.StatusCode, env)
	}
	req, _ := http.NewRequest(http.MethodDelete, d.gateSrv.URL+"/v1/vms/"+strconv.Itoa(d.idsFor("s0", 3)[2]), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if env := decodeEnvelope(t, resp); resp.StatusCode != http.StatusNotFound || env.Code != api.CodeNotResident {
		t.Fatalf("release of an unknown vm: %d %+v", resp.StatusCode, env)
	}

	// Metrics still serve, with the dead shard visible as shard_up 0.
	resp, err = http.Get(d.gateSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		`vmalloc_gate_shard_up{shard="s0"} 1`,
		`vmalloc_gate_shard_up{shard="s1"} 0`,
		`vmalloc_gate_proxy_errors_total{shard="s0"} 0`,
		`vmalloc_cluster_admissions_total{shard="s0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if m := regexp.MustCompile(`vmalloc_gate_proxy_errors_total\{shard="s1"\} ([0-9]+)`).FindStringSubmatch(out); m == nil || m[1] == "0" {
		t.Errorf("proxy errors of the dead shard: %v, want at least 1", m)
	}
}

// TestGateShardAnswerOverCap: a shard answering one byte over
// api.MaxBodyBytes is refused for its size. /v1/state is a typed 502
// naming the shard and the limit; /metrics skips the shard, as it skips a
// failed one, instead of merging a truncated exposition. Each answer is
// well formed, so only its size can refuse it, and the shard stays up.
func TestGateShardAnswerOverCap(t *testing.T) {
	pad := func(body string) string { return body + strings.Repeat("\n", api.MaxBodyBytes+1-len(body)) }
	state, metrics := pad(`{"now":1}`), pad("# TYPE vmalloc_stub_total counter\nvmalloc_stub_total 1\n")
	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/state":
			io.WriteString(w, state) //nolint:errcheck // client gone
		case "/metrics":
			io.WriteString(w, metrics) //nolint:errcheck // client gone
		default:
			io.WriteString(w, "ok\n") //nolint:errcheck // client gone
		}
	}))
	defer big.Close()
	c, err := cluster.Open(cluster.Config{
		Servers:     []model.Server{{ID: 1, Capacity: model.Resources{CPU: 8, Mem: 16}, PIdle: 100, PPeak: 200, TransitionTime: 1}},
		IdleTimeout: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	small := httptest.NewServer(clusterhttp.New(c, nil))
	defer small.Close()
	m, err := NewMap([]Shard{{Name: "small", Addr: small.URL}, {Name: "big", Addr: big.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gateSrv := httptest.NewServer(NewGate(m, Config{}).Handler())
	defer gateSrv.Close()

	resp, err := http.Get(gateSrv.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	status := resp.StatusCode
	env := decodeEnvelope(t, resp)
	if limit := fmt.Sprint(api.MaxBodyBytes); status != http.StatusBadGateway || env.Code != api.CodeInternal ||
		!strings.Contains(env.Message, "shard big") || !strings.Contains(env.Message, limit) {
		t.Errorf("state: %d %+v, want 502 %s naming shard big and the %s-byte limit", status, env, api.CodeInternal, limit)
	}

	resp, err = http.Get(gateSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if strings.Contains(out, "vmalloc_stub_total") {
		t.Error("merged metrics carry the over-cap shard's exposition")
	}
	for _, want := range []string{`vmalloc_cluster_admissions_total{shard="small"}`, `vmalloc_gate_shard_up{shard="big"} 1`} {
		if !strings.Contains(out, want) {
			t.Errorf("merged metrics missing %q", want)
		}
	}
}

// TestGateAdmitBadShardAnswer: a shard that answers its sub-batch with
// two outcomes swapped is a typed 502 naming the shard and the first bad
// position, so the gate never relays an outcome under another request;
// one whose answer does not parse is a typed 502 with the parse error.
func TestGateAdmitBadShardAnswer(t *testing.T) {
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/vms" {
			io.WriteString(w, "ok\n") //nolint:errcheck // client gone
			return
		}
		body, _ := io.ReadAll(r.Body)
		reqs, err := api.DecodeAdmitRequests(body)
		if err != nil || len(reqs) < 3 {
			io.WriteString(w, `[{"id":1,"accepted":maybe}]`) //nolint:errcheck // client gone
			return
		}
		resps := make([]api.AdmitResponse, len(reqs))
		for i, req := range reqs {
			resps[i] = api.AdmitResponse{ID: req.ID, Accepted: true, Server: 1, Start: 1, End: 60}
		}
		resps[1], resps[2] = resps[2], resps[1]
		api.WriteJSON(w, http.StatusOK, resps)
	}))
	defer liar.Close()
	m, err := NewMap([]Shard{{Name: "liar", Addr: liar.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gateSrv := httptest.NewServer(NewGate(m, Config{}).Handler())
	defer gateSrv.Close()

	for _, tc := range []struct {
		ids  []int
		want string
	}{
		{[]int{5, 6, 7}, "shard liar: answer 1 is for vm 7"},
		{[]int{5}, "shard liar: parse POST /v1/vms response: invalid character 'm'"},
	} {
		resp, err := http.Post(gateSrv.URL+"/v1/vms", "application/json", strings.NewReader(admitBody(tc.ids)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadGateway {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("vms %v: bad answer relayed: %d %s, want 502", tc.ids, resp.StatusCode, body)
		}
		if env := decodeEnvelope(t, resp); env.Code != api.CodeInternal || !strings.Contains(env.Message, tc.want) {
			t.Errorf("vms %v: %+v, want %s with %q", tc.ids, env, api.CodeInternal, tc.want)
		}
	}
}

// TestGateMetricsMerged: the merged exposition passes the shared lint
// (one declaration per family, shard-labelled samples, cumulative
// histograms) and carries both shards plus the gate's own families.
func TestGateMetricsMerged(t *testing.T) {
	d := newDeployment(t)
	ids := make([]int, 8)
	for i := range ids {
		ids[i] = i + 1
	}
	resp, err := http.Post(d.gateSrv.URL+"/v1/vms", "application/json", strings.NewReader(admitBody(ids)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(d.gateSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	promlint.Lint(t, out)
	for _, want := range []string{
		`vmalloc_cluster_admissions_total{shard="s0"}`,
		`vmalloc_cluster_admissions_total{shard="s1"}`,
		`vmalloc_cluster_migrations_total{shard="s0"}`,
		`vmalloc_cluster_migrations_total{shard="s1"}`,
		`vmalloc_go_goroutines{shard="s0"}`,
		`vmalloc_gate_shard_up{shard="s0"} 1`,
		`vmalloc_gate_proxy_errors_total{shard="s1"} 0`,
		`vmalloc_gate_http_requests_total{route="POST /v1/vms",status="200"} 1`,
		`vmalloc_gate_build_info{`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged metrics missing %q", want)
		}
	}
	if n := strings.Count(out, "# TYPE vmalloc_cluster_admissions_total counter"); n != 1 {
		t.Errorf("vmalloc_cluster_admissions_total declared %d times, want 1", n)
	}
}

// TestGateCountsOwnRoutes: a gate built from the zero Config counts its
// own routes, so its /metrics carries vmalloc_gate_http_* after one
// proxied request.
func TestGateCountsOwnRoutes(t *testing.T) {
	d := newDeployment(t)
	srv := httptest.NewServer(NewGate(d.m, Config{}).Handler())
	t.Cleanup(srv.Close)
	for _, path := range []string{"/v1/state", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
		}
		if path == "/metrics" {
			if want := `vmalloc_gate_http_requests_total{route="GET /v1/state",status="200"} 1`; !strings.Contains(string(body), want) {
				t.Errorf("gate metrics missing %q", want)
			}
		}
	}
}

// TestGateRequestIDPropagation: the caller's request id flows through
// the gate to the shard, so one id joins the gate access log and the
// shard flight recorder.
func TestGateRequestIDPropagation(t *testing.T) {
	d := newDeployment(t)
	id := d.idsFor("s0", 1)[0]
	req, err := http.NewRequest(http.MethodPost, d.gateSrv.URL+"/v1/vms", strings.NewReader(admitBody([]int{id})))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "gate-prop-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "gate-prop-1" {
		t.Errorf("gate echoed id %q, want gate-prop-1", got)
	}

	// The shard's admit decision must carry the same id.
	resp, err = http.Get(d.shardSrv["s0"].URL + "/v1/debug/decisions?op=admit&vm=" + fmt.Sprint(id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ds api.DecisionsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	if len(ds.Decisions) != 1 || ds.Decisions[0].RequestID != "gate-prop-1" {
		t.Errorf("shard decisions %+v, want one carrying gate-prop-1", ds.Decisions)
	}
}

// TestGateMigrationSurface drives the consolidation API through the
// gate: a manual migration routed by VM ID, a fleet-wide consolidation
// pass merged across shards, the shard-stamped history — and the pinned
// isolation guarantee that migrations on one shard never move another
// shard's state digest.
func TestGateMigrationSurface(t *testing.T) {
	d := newDeployment(t)
	ids0 := d.idsFor("s0", 2)
	ids1 := d.idsFor("s1", 2)
	resp, err := http.Post(d.gateSrv.URL+"/v1/vms", "application/json",
		strings.NewReader(admitBody(append(append([]int{}, ids0...), ids1...))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(d.gateSrv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	// Both s0 VMs pack onto one server; move one to a second server so a
	// later consolidation has a drain to find. The gate must route the
	// migrate to s0 by VM ID and stamp the owning shard on the record.
	st0, _ := shardState(t, d.shardSrv["s0"])
	from := st0.Servers[st0.VMs[0].Server].ID
	to := from + 1
	if from != 100 {
		to = 100
	}
	_, before1 := shardState(t, d.shardSrv["s1"])
	status, body := post("/v1/migrations", fmt.Sprintf(`{"vm":%d,"server":%d}`, ids0[1], to))
	if status != http.StatusOK {
		t.Fatalf("gate migrate: %d %s", status, body)
	}
	var rec api.MigrationRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.VM != ids0[1] || rec.From != from || rec.To != to || rec.Shard != "s0" {
		t.Errorf("record %+v, want vm %d from %d to %d on shard s0", rec, ids0[1], from, to)
	}
	if _, after1 := shardState(t, d.shardSrv["s1"]); after1 != before1 {
		t.Fatalf("migrating a VM on s0 changed s1's digest: %s != %s", after1, before1)
	}

	// Error envelopes relay through the gate with their codes intact.
	ghost := d.idsFor("s0", 3)[2] // routed to s0, never admitted
	if status, body = post("/v1/migrations", fmt.Sprintf(`{"vm":%d,"server":%d}`, ghost, from)); status != http.StatusNotFound {
		t.Errorf("unknown vm through gate: %d %s, want 404", status, body)
	}

	// Wake finished, consolidate fleet-wide: only s0 has two half-empty
	// active servers, so the merged pass executes exactly one move there.
	if status, body = post("/v1/clock", `{"now":5}`); status != http.StatusOK {
		t.Fatalf("clock: %d %s", status, body)
	}
	_, before1 = shardState(t, d.shardSrv["s1"])
	status, body = post("/v1/consolidate", `{"policy":"min-utilization"}`)
	if status != http.StatusOK {
		t.Fatalf("gate consolidate: %d %s", status, body)
	}
	var cres api.ConsolidateResponse
	if err := json.Unmarshal(body, &cres); err != nil {
		t.Fatal(err)
	}
	if cres.Policy != api.PolicyMinUtilization || cres.Executed != 1 || len(cres.Moves) != 1 || cres.Moves[0].Shard != "s0" {
		t.Errorf("merged consolidation %+v, want one move on s0", cres)
	}
	if cres.Clock != 5 {
		t.Errorf("merged clock %d, want 5", cres.Clock)
	}
	if cres.EnergySavedWattMinutes <= 0 {
		t.Errorf("merged saving %g, want > 0", cres.EnergySavedWattMinutes)
	}
	if _, after1 := shardState(t, d.shardSrv["s1"]); after1 != before1 {
		t.Fatalf("consolidation that moved nothing on s1 changed its digest: %s != %s", after1, before1)
	}
	if status, body = post("/v1/consolidate", `{"policy":"sideways"}`); status != http.StatusBadRequest {
		t.Errorf("bad policy through gate: %d %s, want 400", status, body)
	}

	// Merged history: both records, stamped s0, ordered, limit honoured.
	get := func(path string) api.MigrationsResponse {
		t.Helper()
		resp, err := http.Get(d.gateSrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var mr api.MigrationsResponse
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatal(err)
		}
		return mr
	}
	all := get("/v1/migrations")
	if all.Count != 2 || len(all.Migrations) != 2 {
		t.Fatalf("merged history %+v, want 2 records", all)
	}
	for _, m := range all.Migrations {
		if m.Shard != "s0" {
			t.Errorf("record %+v not stamped with its owning shard", m)
		}
	}
	if last := get("/v1/migrations?limit=1"); len(last.Migrations) != 1 || last.Migrations[0] != all.Migrations[1] {
		t.Errorf("limit=1 returned %+v, want the newest record", last.Migrations)
	}

	// The gate state sums the migration aggregates across shards.
	resp, err = http.Get(d.gateSrv.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var gs api.GateStateResponse
	if err := json.NewDecoder(resp.Body).Decode(&gs); err != nil {
		t.Fatal(err)
	}
	if gs.Migrations != 2 || gs.MigrationSaved != cres.EnergySavedWattMinutes {
		t.Errorf("gate state migrations=%d saved=%g, want 2 and %g", gs.Migrations, gs.MigrationSaved, cres.EnergySavedWattMinutes)
	}
}

// BenchmarkGateAdmit: one 40-VM admission (the gate-mixed shape) per op
// through Gate.Handler(), split over three in-process cluster shards
// behind httptest: the gate's decode, split, both directions of the
// gate→shard hop, the shards' own work and the join. Between ops, off
// the clock, the fleet clock moves on two minutes, so with admitBody's
// 60-minute VMs the fleet settles at about 30 batches resident.
func BenchmarkGateAdmit(b *testing.B) {
	const vms = 40
	var shards []Shard
	for i := range 3 {
		servers := make([]model.Server, 32)
		for j := range servers {
			servers[j] = model.Server{ID: 100*(i+1) + j, Capacity: model.Resources{CPU: 16, Mem: 32}, PIdle: 100, PPeak: 200, TransitionTime: 1}
		}
		c, err := cluster.Open(cluster.Config{Servers: servers, IdleTimeout: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		srv := httptest.NewServer(clusterhttp.New(c, nil))
		b.Cleanup(srv.Close)
		shards = append(shards, Shard{Name: fmt.Sprint("s", i), Addr: srv.URL})
	}
	m, err := NewMap(shards)
	if err != nil {
		b.Fatal(err)
	}
	h := NewGate(m, Config{}).Handler()
	serve := func(path, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
	ids := make([]int, vms)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		serve("/v1/clock", fmt.Sprintf(`{"now":%d}`, 2*i+1))
		for j := range ids {
			ids[j] = i*vms + j + 1
		}
		body := admitBody(ids)
		b.StartTimer()
		serve("/v1/vms", body)
	}
}
