package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/model"
	"vmalloc/internal/online"
)

func testConfig(dir string) cluster.Config {
	servers := make([]model.Server, 8)
	for i := range servers {
		servers[i] = model.Server{
			ID:             i + 1,
			Capacity:       model.Resources{CPU: 10, Mem: 16},
			PIdle:          100,
			PPeak:          200,
			TransitionTime: 1,
		}
	}
	return cluster.Config{Servers: servers, IdleTimeout: 2, Dir: dir}
}

func do(t *testing.T, srv *httptest.Server, method, path, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestServeEndToEnd drives the full admit → metrics → release → snapshot
// → restart cycle over HTTP and requires the restarted daemon to serve a
// byte-identical /v1/state.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	c, err := cluster.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(clusterhttp.NewHandler(c))

	// Health first.
	if code, body := do(t, srv, "GET", "/healthz", ""); code != 200 || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// Admit: one single-object request, then a batch array.
	code, body := do(t, srv, "POST", "/v1/vms",
		`{"demand":{"cpu":2,"mem":4},"durationMinutes":60}`)
	if code != 200 {
		t.Fatalf("single admit = %d %s", code, body)
	}
	var adms []api.AdmitResponse
	if err := json.Unmarshal(body, &adms); err != nil {
		t.Fatal(err)
	}
	if len(adms) != 1 || !adms[0].Accepted || adms[0].ID != 1 {
		t.Fatalf("single admit outcome %+v", adms)
	}
	code, body = do(t, srv, "POST", "/v1/vms",
		`[{"demand":{"cpu":1,"mem":1},"durationMinutes":30},
		  {"demand":{"cpu":3,"mem":2},"durationMinutes":45,"start":5},
		  {"demand":{"cpu":999,"mem":1},"durationMinutes":5}]`)
	if code != 200 {
		t.Fatalf("batch admit = %d %s", code, body)
	}
	if err := json.Unmarshal(body, &adms); err != nil {
		t.Fatal(err)
	}
	if len(adms) != 3 || !adms[0].Accepted || !adms[1].Accepted {
		t.Fatalf("batch outcome %+v", adms)
	}
	if adms[2].Accepted || adms[2].Reason == "" {
		t.Fatalf("oversized vm not rejected gracefully: %+v", adms[2])
	}

	// Bad input is a 400, not a crash.
	if code, _ := do(t, srv, "POST", "/v1/vms", `{"nope`); code != 400 {
		t.Fatalf("malformed body = %d", code)
	}

	// Metrics reflect the admissions and the rejection.
	code, body = do(t, srv, "GET", "/metrics", "")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	metrics := string(body)
	for _, want := range []string{
		"vmalloc_cluster_admissions_total 3",
		"vmalloc_cluster_rejections_total 1",
		"vmalloc_cluster_batch_size_bucket",
		"vmalloc_cluster_scan_seconds_bucket",
		"vmalloc_cluster_queue_wait_seconds_bucket",
		"vmalloc_cluster_fsync_seconds_bucket",
		"vmalloc_cluster_energy_watt_minutes{component=\"run\"}",
		"vmalloc_cluster_server_state{server=\"1\"}",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Release VM 2; a second release of it is a 404.
	if code, body := do(t, srv, "DELETE", "/v1/vms/2", ""); code != 200 {
		t.Fatalf("release = %d %s", code, body)
	}
	if code, _ := do(t, srv, "DELETE", "/v1/vms/2", ""); code != 404 {
		t.Fatalf("double release = %d, want 404", code)
	}
	if code, _ := do(t, srv, "DELETE", "/v1/vms/abc", ""); code != 400 {
		t.Fatalf("non-numeric id = %d, want 400", code)
	}

	// Snapshot, capture the state, and "restart the daemon".
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	code, before := do(t, srv, "GET", "/v1/state", "")
	if code != 200 {
		t.Fatalf("/v1/state = %d", code)
	}
	srv.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := cluster.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	srv2 := httptest.NewServer(clusterhttp.NewHandler(c2))
	defer srv2.Close()
	code, after := do(t, srv2, "GET", "/v1/state", "")
	if code != 200 {
		t.Fatalf("restarted /v1/state = %d", code)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("restarted state differs:\n--- before\n%s\n--- after\n%s", before, after)
	}

	// The restarted daemon still admits.
	code, body = do(t, srv2, "POST", "/v1/vms", `{"demand":{"cpu":1,"mem":1},"durationMinutes":10}`)
	if code != 200 {
		t.Fatalf("admit after restart = %d %s", code, body)
	}
	if err := json.Unmarshal(body, &adms); err != nil {
		t.Fatal(err)
	}
	// The rejected oversized request consumed ID 4, so the next free ID
	// (persisted through the snapshot) is 5.
	if !adms[0].Accepted || adms[0].ID != 5 {
		t.Fatalf("post-restart admission %+v, want accepted with id 5", adms[0])
	}
}

// TestServeClock: POST /v1/clock advances the fleet clock, so a purely
// HTTP-driven deployment (whose admissions all start "now") still runs
// departures, wake-ups and idle-sleeps instead of accumulating VMs until
// capacity runs out.
func TestServeClock(t *testing.T) {
	c, err := cluster.Open(testConfig("")) // volatile
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(clusterhttp.NewHandler(c))
	defer srv.Close()

	code, body := do(t, srv, "POST", "/v1/vms", `{"demand":{"cpu":2,"mem":4},"durationMinutes":10}`)
	if code != 200 {
		t.Fatalf("admit = %d %s", code, body)
	}
	var adms []api.AdmitResponse
	if err := json.Unmarshal(body, &adms); err != nil {
		t.Fatal(err)
	}
	end := adms[0].End

	// Malformed or missing "now" is a 400, not a crash.
	if code, _ := do(t, srv, "POST", "/v1/clock", `{"nope`); code != 400 {
		t.Fatalf("malformed clock body = %d, want 400", code)
	}
	if code, _ := do(t, srv, "POST", "/v1/clock", `{}`); code != 400 {
		t.Fatalf("clock body without now = %d, want 400", code)
	}

	code, body = do(t, srv, "POST", "/v1/clock", fmt.Sprintf(`{"now": %d}`, end+5))
	if code != 200 {
		t.Fatalf("clock advance = %d %s", code, body)
	}
	var clk map[string]int
	if err := json.Unmarshal(body, &clk); err != nil {
		t.Fatal(err)
	}
	if clk["now"] != end+5 {
		t.Errorf("clock = %d, want %d", clk["now"], end+5)
	}

	// The VM departed on the way.
	code, body = do(t, srv, "GET", "/v1/state", "")
	if code != 200 {
		t.Fatalf("/v1/state = %d", code)
	}
	var st api.StateResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Now != end+5 {
		t.Errorf("state.Now = %d, want %d", st.Now, end+5)
	}
	if len(st.VMs) != 0 {
		t.Errorf("%d residents after advancing past every end", len(st.VMs))
	}

	// The clock is monotonic: moving backwards is a no-op, not an error.
	code, body = do(t, srv, "POST", "/v1/clock", `{"now": 1}`)
	if code != 200 {
		t.Fatalf("backwards clock = %d %s", code, body)
	}
	if err := json.Unmarshal(body, &clk); err != nil {
		t.Fatal(err)
	}
	if clk["now"] != end+5 {
		t.Errorf("clock moved backwards to %d", clk["now"])
	}
}

// syncBuffer is an io.Writer the daemon goroutine writes while the test
// goroutine polls — bytes.Buffer alone would race.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var servingAddr = regexp.MustCompile(`msg=serving .*addr=(\S+)`)

// waitServing polls the daemon's log for the bound address (the daemon
// resolves :0 ports before announcing) and then polls /healthz until the
// daemon answers — readiness by observation, not by sleeping.
func waitServing(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var addr string
	for addr == "" {
		if m := servingAddr.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	base := "http://" + addr
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon at %s never became healthy (last err %v)", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// bootDaemon runs the real daemon on an ephemeral port with the given
// extra flags and returns its base URL once /healthz answers, plus a stop
// function that cancels its context (the signal path's plumbing) and
// fails the test unless run returns nil promptly.
func bootDaemon(t *testing.T, args ...string) (base string, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	out := new(syncBuffer)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0", "-servers", "4"}, args...), out)
	}()
	t.Cleanup(cancel)
	return waitServing(t, out), func() {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run: %v (output: %s)", err, out.String())
			}
		case <-time.After(5 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}
}

// TestRunStartupShutdown boots the real daemon, serves one admission, and
// shuts it down via context cancellation.
func TestRunStartupShutdown(t *testing.T) {
	dir := t.TempDir()
	base, stop := bootDaemon(t, "-journal", dir)

	resp, err := http.Post(base+"/v1/vms", "application/json",
		strings.NewReader(`{"demand":{"cpu":1,"mem":1},"durationMinutes":5}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit via daemon = %d", resp.StatusCode)
	}

	stop()
	// Graceful shutdown snapshots the admitted state.
	if fi, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil || fi.Size() == 0 {
		t.Errorf("no snapshot after graceful shutdown: %v", err)
	}
}

// TestRunPolicies: every name of the online policy lookup boots as
// -policy and is the champion GET /v1/policies reports; -shadow-policy
// takes the same names, bare or as name=policy, and both forms read back.
func TestRunPolicies(t *testing.T) {
	get := func(base, path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	policies := func(base string) (pr api.PoliciesResponse) {
		t.Helper()
		if err := json.Unmarshal(get(base, "/v1/policies"), &pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}
	for _, name := range online.PolicyNames() {
		base, stop := bootDaemon(t, "-policy", name)
		if got := policies(base).Champion; got != "online/"+name {
			t.Errorf("-policy %s: champion %q", name, got)
		}
		stop()
	}
	// The daemon wires the arena to its recorder and /metrics: after one
	// admission both challengers have judged it (asynchronously, so poll).
	base, stop := bootDaemon(t, "-shadow-policy", "delay-aware", "-shadow-policy", "trial=ffps")
	resp, err := http.Post(base+"/v1/vms", "application/json",
		strings.NewReader(`{"demand":{"cpu":1,"mem":1},"durationMinutes":5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	pr := policies(base)
	for deadline := time.Now().Add(5 * time.Second); ; pr = policies(base) {
		if pr.Count == 2 && pr.Policies[0].Decisions == 1 && pr.Policies[1].Decisions == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("challengers never judged the admission: %+v", pr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := bytes.Count(get(base, "/v1/debug/decisions?op=shadow"), []byte(`"op": "shadow"`)); got != 2 {
		t.Errorf("%d shadow decisions in the flight recorder, want 2", got)
	}
	if !bytes.Contains(get(base, "/metrics"), []byte(`vmalloc_arena_decisions_total{policy="trial"} 1`)) {
		t.Error("/metrics carries no arena decisions for the renamed challenger")
	}
	stop()
	for i, want := range []api.PolicyReport{
		{Name: "delay-aware", Policy: "online/delay-aware"},
		{Name: "trial", Policy: "online/ffps"},
	} {
		if got := pr.Policies[i]; got.Name != want.Name || got.Policy != want.Policy {
			t.Errorf("challenger %d = %s (%s), want %s (%s)", i, got.Name, got.Policy, want.Name, want.Policy)
		}
	}
	for _, bad := range [][]string{{"-policy", "nope"}, {"-shadow-policy", "x=nope"}} {
		if err := run(context.Background(), bad, io.Discard); err == nil || !strings.Contains(err.Error(), "unknown policy") {
			t.Errorf("%v: err = %v, want unknown policy", bad, err)
		}
	}
}

// TestRunBadDelayPenalty: a negative or non-finite -delay-penalty is a
// usage error for delay-aware, as champion or as challenger, and the
// daemon never starts.
func TestRunBadDelayPenalty(t *testing.T) {
	for _, args := range [][]string{
		{"-policy", "delay-aware", "-delay-penalty", "-5"},
		{"-policy", "delay-aware", "-delay-penalty", "NaN"},
		{"-policy", "delay-aware", "-delay-penalty", "+Inf"},
		{"-shadow-policy", "delay-aware", "-delay-penalty", "-5"},
	} {
		var pe *online.DelayPenaltyError
		if err := run(context.Background(), append(args, "-addr", "127.0.0.1:0"), io.Discard); !errors.As(err, &pe) {
			t.Errorf("%v: error %v, want a *online.DelayPenaltyError", args, err)
		}
	}
}

// TestRunVersion covers the -version flag shared by every CLI.
func TestRunVersion(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "vmalloc ") {
		t.Errorf("-version printed %q", out.String())
	}
}

// TestRunRemovedFlag: the dispatcher is self-clocked and the admission
// scan is one sequential pass, so the flags that set the batch timer and
// the scan's worker pool are usage errors, not silent no-ops.
func TestRunRemovedFlag(t *testing.T) {
	for _, args := range [][]string{{"-batch-window", "1ms"}, {"-parallel", "2"}} {
		var out bytes.Buffer
		err := run(context.Background(), args, &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: error %v, want flag provided but not defined", args[0], err)
		}
	}
}
