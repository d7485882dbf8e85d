package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/loadgen"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
	"vmalloc/internal/promlint"
	"vmalloc/internal/workload"
)

// newShardServer stands up one shard with zero-transition servers, so
// start times are independent of which shard hosts a VM — the property
// that makes a resized deployment's placement digest comparable to a
// never-resized control's.
func newShardServer(t *testing.T, base int) *httptest.Server {
	t.Helper()
	servers := make([]model.Server, 8)
	for j := range servers {
		servers[j] = model.Server{
			ID:       base + j,
			Capacity: model.Resources{CPU: 10, Mem: 16},
			PIdle:    100,
			PPeak:    200,
		}
	}
	c, err := cluster.Open(cluster.Config{Servers: servers, IdleTimeout: 1000})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(clusterhttp.New(c, nil))
	t.Cleanup(srv.Close)
	return srv
}

// elasticDeployment is a gate over an explicit shard map, with the
// spare shard servers already running so a later topology POST can pull
// them in.
type elasticDeployment struct {
	gate    *Gate
	gateSrv *httptest.Server
	byName  map[string]*httptest.Server
}

func newElasticDeployment(t *testing.T, initial []Shard, epoch int64, all map[string]*httptest.Server) *elasticDeployment {
	t.Helper()
	m, err := NewMap(initial)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGate(m.WithEpoch(epoch), Config{Spans: obs.NewSpanStore(0)})
	gateSrv := httptest.NewServer(g.Handler())
	t.Cleanup(gateSrv.Close)
	return &elasticDeployment{gate: g, gateSrv: gateSrv, byName: all}
}

func (d *elasticDeployment) do(t *testing.T, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, d.gateSrv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// mustDo fails the test on any non-2xx response — the zero-failed-ops
// assertion, applied per call.
func (d *elasticDeployment) mustDo(t *testing.T, method, path, body string) []byte {
	t.Helper()
	resp, raw := d.do(t, method, path, body)
	if resp.StatusCode/100 != 2 {
		t.Fatalf("%s %s → %d: %s", method, path, resp.StatusCode, raw)
	}
	return raw
}

func admitBatch(ids []int, start, duration int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf(`{"id":%d,"demand":{"cpu":1,"mem":1},"start":%d,"durationMinutes":%d}`, id, start, duration)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// driveWorkload runs the identical client-op script against a
// deployment, with resize injected (or not) between the phases. Every
// op must succeed.
func driveWorkload(t *testing.T, d *elasticDeployment, resize func()) {
	t.Helper()
	d.mustDo(t, http.MethodPost, "/v1/vms", admitBatch(seq(1, 24), 1, 40))
	d.mustDo(t, http.MethodPost, "/v1/clock", `{"now":5}`)
	d.mustDo(t, http.MethodPost, "/v1/vms", admitBatch(seq(25, 12), 6, 30))
	if resize != nil {
		resize()
	}
	// Ops landing inside (or right after) the transition window: fresh
	// admissions route by the new map; releases of possibly-undrained
	// VMs must still resolve via the double-delete fallback.
	d.mustDo(t, http.MethodPost, "/v1/vms", admitBatch(seq(37, 12), 7, 20))
	for _, id := range []int{3, 11, 19, 27} {
		d.mustDo(t, http.MethodDelete, "/v1/vms/"+fmt.Sprint(id), "")
	}
	d.mustDo(t, http.MethodPost, "/v1/clock", `{"now":12}`)
}

func placementDigestOf(t *testing.T, d *elasticDeployment) (string, int) {
	t.Helper()
	raw := d.mustDo(t, http.MethodGet, "/v1/state", "")
	var st api.GateStateResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.PlacementDigest == "" {
		t.Fatal("gate state has no placementDigest")
	}
	return st.PlacementDigest, st.Residents
}

// awaitDrain polls GET /v1/topology until the rebalance settles and
// returns its final status.
func awaitDrain(t *testing.T, d *elasticDeployment) api.RebalanceStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		raw := d.mustDo(t, http.MethodGet, "/v1/topology", "")
		var tr api.TopologyResponse
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatal(err)
		}
		if !tr.Rebalance.Active {
			return tr.Rebalance
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebalance still active: %+v", tr.Rebalance)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLiveResizeZeroFailures is the tentpole's end-to-end check: a 2→3
// shard resize under live traffic loses no client op, drains every
// remapped VM to its new owner, and converges to a placement digest
// byte-identical to a never-resized 3-shard control driven by the same
// workload.
func TestLiveResizeZeroFailures(t *testing.T) {
	shardSrvs := map[string]*httptest.Server{
		"a": newShardServer(t, 100),
		"b": newShardServer(t, 200),
		"c": newShardServer(t, 300),
	}
	three := []Shard{
		{Name: "a", Addr: shardSrvs["a"].URL},
		{Name: "b", Addr: shardSrvs["b"].URL},
		{Name: "c", Addr: shardSrvs["c"].URL},
	}
	two := three[:2]

	// Control: all three shards from the start, same workload, no resize.
	ctrlSrvs := map[string]*httptest.Server{
		"a": newShardServer(t, 100),
		"b": newShardServer(t, 200),
		"c": newShardServer(t, 300),
	}
	ctrlShards := []Shard{
		{Name: "a", Addr: ctrlSrvs["a"].URL},
		{Name: "b", Addr: ctrlSrvs["b"].URL},
		{Name: "c", Addr: ctrlSrvs["c"].URL},
	}
	control := newElasticDeployment(t, ctrlShards, 2, ctrlSrvs)
	driveWorkload(t, control, nil)

	resized := newElasticDeployment(t, two, 1, shardSrvs)
	driveWorkload(t, resized, func() {
		body := fmt.Sprintf(`{"epoch":2,"shards":[{"name":"a","url":%q},{"name":"b","url":%q},{"name":"c","url":%q}]}`,
			shardSrvs["a"].URL, shardSrvs["b"].URL, shardSrvs["c"].URL)
		raw := resized.mustDo(t, http.MethodPost, "/v1/topology", body)
		var tr api.TopologyResponse
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatal(err)
		}
		if tr.Epoch != 2 || !tr.Rebalance.Active {
			t.Fatalf("topology accept = %+v, want epoch 2 with an active rebalance", tr)
		}
	})

	status := awaitDrain(t, resized)
	if status.Failed != 0 || status.LastError != "" {
		t.Fatalf("rebalance finished with failures: %+v", status)
	}
	if status.Moved == 0 {
		t.Fatalf("rebalance moved nothing: %+v", status)
	}
	if status.Moved+status.Skipped != status.Planned {
		t.Fatalf("moved %d + skipped %d ≠ planned %d", status.Moved, status.Skipped, status.Planned)
	}

	// Every remapped VM now lives on its final owner: the resized
	// deployment's residency fingerprint matches the never-resized
	// control's exactly.
	wantDigest, wantResidents := placementDigestOf(t, control)
	gotDigest, gotResidents := placementDigestOf(t, resized)
	if gotResidents != wantResidents {
		t.Fatalf("resized deployment hosts %d VMs, control %d", gotResidents, wantResidents)
	}
	if gotDigest != wantDigest {
		t.Fatalf("placement digest diverged after resize:\n  resized %s\n  control %s", gotDigest, wantDigest)
	}

	// The drain is visible in the gate's own metrics.
	raw := resized.mustDo(t, http.MethodGet, "/metrics", "")
	promlint.Lint(t, string(raw))
	for _, want := range []string{
		"vmalloc_gate_rebalance_moves_total " + fmt.Sprint(status.Moved),
		"vmalloc_gate_rebalance_failed_total 0",
		"vmalloc_gate_topology_epoch 2",
	} {
		if !strings.Contains(string(raw), want+"\n") {
			t.Fatalf("metrics missing %q", want)
		}
	}

	// The epoch fence is live on the shards: a request stamped with the
	// superseded epoch gets the typed stale_epoch refusal — a read, and
	// (what a foreign writer still routing on the old map would send) an
	// admission aimed straight at a shard, which must not execute.
	const strayID = 9001
	for _, c := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/state", ""},
		{http.MethodPost, "/v1/vms", admitBatch([]int{strayID}, 12, 10)},
	} {
		req, err := http.NewRequest(c.method, shardSrvs["a"].URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(api.EpochHeader, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		status := resp.StatusCode
		if env := decodeEnvelope(t, resp); status != http.StatusConflict || env.Code != api.CodeStaleEpoch {
			t.Fatalf("stale-stamped %s %s: status %d code %q, want 409 %s", c.method, c.path, status, env.Code, api.CodeStaleEpoch)
		}
	}
	for name, srv := range shardSrvs {
		st, _ := shardState(t, srv)
		for _, p := range st.VMs {
			if p.VM.ID == strayID {
				t.Fatalf("stale-stamped admission executed: vm %d resident on shard %s", strayID, name)
			}
		}
	}

	// And /v1/shards reports the new epoch with the joined shard.
	raw = resized.mustDo(t, http.MethodGet, "/v1/shards", "")
	var sh api.ShardsResponse
	if err := json.Unmarshal(raw, &sh); err != nil {
		t.Fatal(err)
	}
	if sh.Epoch != 2 || sh.Count != 3 {
		t.Fatalf("shards = epoch %d count %d, want epoch 2 count 3", sh.Epoch, sh.Count)
	}
}

// roundTripFunc is an http.RoundTripper written as a function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestLiveResizeMidBurst grows a gate from 2 to 3 shards while a seeded
// burst of racing single-VM admissions is still running through it. The
// POST /v1/topology goes out once the burst has issued half its admit
// calls, and that call waits until the new topology is accepted, so the
// drain runs beside the other half. No client op may fail or be refused,
// the drain must move VMs and fail none, and the final placement digest
// must equal a never-resized 3-shard control's under the same burst.
func TestLiveResizeMidBurst(t *testing.T) {
	sched, err := loadgen.BuildSchedule(loadgen.ScheduleSpec{
		Arrivals: workload.DiurnalSpec{
			NumVMs: 200, MeanInterArrival: 0.5, MeanLength: 5, PeakToTrough: 3, Period: 240,
			Classes: []model.VMClass{model.ClassStandard},
		},
		Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The clock stays at 0, so every admitted VM is still resident at the
	// end and the digest compares all of them.
	opts := loadgen.Options{Workers: 8, Chunk: 1, SkipClock: true}
	run := func(c *loadgen.Client) (*loadgen.Report, error) {
		return (&loadgen.Runner{Client: c, Schedule: sched, Opts: opts}).Run(context.Background())
	}
	clean := func(name string, rep *loadgen.Report, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s burst: %v", name, err)
		}
		if rep.Errors != 0 || rep.Rejected != 0 || rep.Accepted != sched.NumVMs {
			t.Fatalf("%s burst: %d errors, %d rejected, %d of %d accepted", name, rep.Errors, rep.Rejected, rep.Accepted, sched.NumVMs)
		}
	}
	deploy := func(epoch int64, names ...string) (*elasticDeployment, string) {
		srvs := map[string]*httptest.Server{"a": newShardServer(t, 100), "b": newShardServer(t, 200), "c": newShardServer(t, 300)}
		var shards []Shard
		for _, n := range names {
			shards = append(shards, Shard{Name: n, Addr: srvs[n].URL})
		}
		grown := fmt.Sprintf(`{"epoch":2,"shards":[{"name":"a","url":%q},{"name":"b","url":%q},{"name":"c","url":%q}]}`,
			srvs["a"].URL, srvs["b"].URL, srvs["c"].URL)
		return newElasticDeployment(t, shards, epoch, srvs), grown
	}

	control, _ := deploy(2, "a", "b", "c")
	rep, err := run(loadgen.NewClient(control.gateSrv.URL))
	clean("control", rep, err)

	resized, grown := deploy(1, "a", "b")
	half := int32(sched.NumVMs / 2)
	var admits atomic.Int32
	reached, resumed := make(chan struct{}), make(chan struct{})
	client := loadgen.NewClient(resized.gateSrv.URL)
	client.HTTP = &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/vms" && admits.Add(1) == half {
			close(reached)
			<-resumed
		}
		return http.DefaultTransport.RoundTrip(r)
	})}
	type result struct {
		rep *loadgen.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := run(client)
		done <- result{rep, err}
	}()
	select {
	case <-reached:
	case res := <-done:
		t.Fatalf("burst ended after %d admit calls, before the resize: %v", admits.Load(), res.err)
	}
	func() {
		defer close(resumed) // a failed POST must not strand the held call
		resized.mustDo(t, http.MethodPost, "/v1/topology", grown)
	}()
	res := <-done
	clean("resized", res.rep, res.err)

	status := awaitDrain(t, resized)
	if status.Failed != 0 || status.LastError != "" || status.Moved == 0 {
		t.Fatalf("drain = %+v, want moves and no failures", status)
	}
	wantDigest, wantResidents := placementDigestOf(t, control)
	gotDigest, gotResidents := placementDigestOf(t, resized)
	if gotResidents != wantResidents || gotDigest != wantDigest {
		t.Fatalf("resized mid-burst: %d VMs, digest %s; control: %d VMs, digest %s",
			gotResidents, gotDigest, wantResidents, wantDigest)
	}
}

// TestLiveShrinkZeroFailures is the reverse drain: a 3→2 resize under
// live traffic evacuates everything the leaving shard hosted, loses no
// client op, and converges to the placement digest of a two-shard
// control that never knew the third shard.
func TestLiveShrinkZeroFailures(t *testing.T) {
	shardSrvs := map[string]*httptest.Server{
		"a": newShardServer(t, 100),
		"b": newShardServer(t, 200),
		"c": newShardServer(t, 300),
	}
	three := []Shard{
		{Name: "a", Addr: shardSrvs["a"].URL},
		{Name: "b", Addr: shardSrvs["b"].URL},
		{Name: "c", Addr: shardSrvs["c"].URL},
	}

	ctrlSrvs := map[string]*httptest.Server{
		"a": newShardServer(t, 100),
		"b": newShardServer(t, 200),
	}
	ctrlShards := []Shard{
		{Name: "a", Addr: ctrlSrvs["a"].URL},
		{Name: "b", Addr: ctrlSrvs["b"].URL},
	}
	control := newElasticDeployment(t, ctrlShards, 2, ctrlSrvs)
	driveWorkload(t, control, nil)

	resized := newElasticDeployment(t, three, 1, shardSrvs)
	driveWorkload(t, resized, func() {
		body := fmt.Sprintf(`{"epoch":2,"shards":[{"name":"a","url":%q},{"name":"b","url":%q}]}`,
			shardSrvs["a"].URL, shardSrvs["b"].URL)
		resized.mustDo(t, http.MethodPost, "/v1/topology", body)
	})

	status := awaitDrain(t, resized)
	if status.Failed != 0 || status.LastError != "" {
		t.Fatalf("shrink drain finished with failures: %+v", status)
	}
	if status.Moved == 0 {
		t.Fatalf("shrink drain moved nothing: %+v", status)
	}

	wantDigest, wantResidents := placementDigestOf(t, control)
	gotDigest, gotResidents := placementDigestOf(t, resized)
	if gotResidents != wantResidents {
		t.Fatalf("shrunk deployment hosts %d VMs, control %d", gotResidents, wantResidents)
	}
	if gotDigest != wantDigest {
		t.Fatalf("placement digest diverged after shrink:\n  shrunk  %s\n  control %s", gotDigest, wantDigest)
	}

	// The leaving shard is empty: every VM it hosted was adopted by a
	// survivor and released here (read it directly — the gate no longer
	// routes to it).
	resp, err := http.Get(shardSrvs["c"].URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.StateResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.VMs) != 0 {
		t.Fatalf("leaving shard still hosts %d VMs after the drain", len(st.VMs))
	}

	// The gate's shard set no longer includes the leaver.
	raw := resized.mustDo(t, http.MethodGet, "/v1/shards", "")
	var sh api.ShardsResponse
	if err := json.Unmarshal(raw, &sh); err != nil {
		t.Fatal(err)
	}
	if sh.Epoch != 2 || sh.Count != 2 {
		t.Fatalf("shards = epoch %d count %d, want epoch 2 count 2", sh.Epoch, sh.Count)
	}
}

// TestTopologyEndpointValidation covers the typed refusals of the
// topology API: stale epochs, an in-flight rebalance, and malformed
// bodies.
func TestTopologyEndpointValidation(t *testing.T) {
	srvs := map[string]*httptest.Server{
		"a": newShardServer(t, 100),
		"b": newShardServer(t, 200),
	}
	shards := []Shard{
		{Name: "a", Addr: srvs["a"].URL},
		{Name: "b", Addr: srvs["b"].URL},
	}
	d := newElasticDeployment(t, shards, 3, srvs)

	raw := d.mustDo(t, http.MethodGet, "/v1/topology", "")
	var tr api.TopologyResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Epoch != 3 || len(tr.Shards) != 2 || tr.Shards[0].Weight != 1 || tr.Rebalance.Active {
		t.Fatalf("topology = %+v, want epoch 3, 2 shards, weight 1, inactive", tr)
	}

	post := func(body string) (*http.Response, []byte) {
		return d.do(t, http.MethodPost, "/v1/topology", body)
	}
	sameEpoch := fmt.Sprintf(`{"epoch":3,"shards":[{"name":"a","url":%q}]}`, srvs["a"].URL)
	resp, raw2 := post(sameEpoch)
	var env api.ErrorEnvelope
	if resp.StatusCode != http.StatusConflict || json.Unmarshal(raw2, &env) != nil || env.Code != api.CodeStaleEpoch {
		t.Fatalf("same-epoch POST: status %d body %s, want 409 %s", resp.StatusCode, raw2, api.CodeStaleEpoch)
	}

	for _, bad := range []string{
		`{"epoch":0,"shards":[{"name":"a","url":"http://x"}]}`,
		`{"epoch":4,"shards":[]}`,
		`{"epoch":4,"shards":[{"name":"a","url":"http://x","weight":-1}]}`,
		`not json`,
	} {
		if resp, _ := post(bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// While a drain is marked in flight, a newer epoch must wait.
	d.gate.reb.mu.Lock()
	d.gate.reb.status = api.RebalanceStatus{Active: true, FromEpoch: 3, ToEpoch: 4}
	d.gate.reb.mu.Unlock()
	resp, raw2 = post(fmt.Sprintf(`{"epoch":5,"shards":[{"name":"a","url":%q}]}`, srvs["a"].URL))
	if resp.StatusCode != http.StatusConflict || json.Unmarshal(raw2, &env) != nil || env.Code != api.CodeRebalancing {
		t.Fatalf("mid-drain POST: status %d body %s, want 409 %s", resp.StatusCode, raw2, api.CodeRebalancing)
	}
}
