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
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/loadgen"
	"vmalloc/internal/model"
	"vmalloc/internal/online"
	"vmalloc/internal/workload"
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
	srv := httptest.NewServer(clusterhttp.New(c, nil))

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
	srv2 := httptest.NewServer(clusterhttp.New(c2, nil))
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
	srv := httptest.NewServer(clusterhttp.New(c, nil))
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

var servingAddr = regexp.MustCompile(`msg=serving .*addr=(\S+)|"msg":"serving".*"addr":"([^"]+)"`)

// waitServing polls the daemon's log for the bound address (the daemon
// resolves :0 ports before announcing) and then polls /healthz until the
// daemon answers — readiness by observation, not by sleeping.
func waitServing(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var addr string
	for addr == "" {
		if m := servingAddr.FindStringSubmatch(out.String()); m != nil {
			addr = m[1] + m[2] // text or JSON log format
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

// daemonEnv makes this test binary the daemon: TestMain sees it and runs
// main() on the binary's own arguments, so a test can start vmserve as a
// real process, signal wiring included, without building it.
const daemonEnv = "VMSERVE_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemonCmd returns the command that runs this test binary as vmserve on
// an ephemeral port with the given flags.
func daemonCmd(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	return cmd
}

// daemon is one running vmserve process. exited closes once the process
// has exited, and err then holds what Wait returned.
type daemon struct {
	cmd    *exec.Cmd
	out    *syncBuffer
	base   string
	exited chan struct{}
	err    error
}

// startDaemon starts vmserve and returns once it answers /healthz. The
// process is killed at cleanup if the test has not stopped it.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: daemonCmd(t, args...), out: new(syncBuffer), exited: make(chan struct{})}
	d.cmd.Stdout, d.cmd.Stderr = d.out, d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill() //nolint:errcheck // already exited when the test stopped it
		<-d.exited
	})
	d.base = waitServing(t, d.out)
	return d
}

// waitLog polls the daemon's log until it contains want, failing at once
// if the process exits first.
func (d *daemon) waitLog(t *testing.T, want string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(d.out.String(), want); {
		select {
		case <-d.exited:
			t.Fatalf("vmserve exited (%v) before its log said %q:\n%s", d.err, want, d.out.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("log never said %q:\n%s", want, d.out.String())
		}
	}
}

// terminate sends SIGTERM and requires the process to exit 0.
func (d *daemon) terminate(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
		if d.err != nil {
			t.Fatalf("vmserve exited with %v after SIGTERM; log:\n%s", d.err, d.out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("vmserve did not exit after SIGTERM; log:\n%s", d.out.String())
	}
}

// TestDaemonSignalsAndRestart runs vmserve as a real process with a
// journal on disk and fsync on. A racing burst (one VM per call from 8
// workers, consolidation passes between steps) must count every accepted
// VM once, flush in groups and migrate at least once. SIGQUIT dumps the
// flight recorder and the daemon keeps serving; SIGTERM exits 0 and
// leaves the snapshot, which only the shutdown path writes here; and a
// second process on the same directory serves the same state digest.
func TestDaemonSignalsAndRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-servers", "32", "-journal", dir, "-snapshot-every", "-1", "-migration-cost-per-gb", "0.25"}
	d := startDaemon(t, args...)
	ctx := context.Background()
	client := loadgen.NewClient(d.base)

	sched, err := loadgen.BuildSchedule(loadgen.ScheduleSpec{
		Arrivals: workload.DiurnalSpec{
			NumVMs: 400, MeanInterArrival: 0.3, MeanLength: 30, PeakToTrough: 3, Period: 240,
		},
		ReleaseFraction: 0.3,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &loadgen.Runner{Client: client, Schedule: sched, Opts: loadgen.Options{
		Workers: 8, Chunk: 1, ConsolidateEvery: 10, ConsolidatePolicy: api.PolicyMinUtilization,
	}}
	rep, err := r.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Accepted == 0 || rep.Migrations == 0 {
		t.Fatalf("burst: %d errors, %d accepted, %d migrations; want 0 errors, some accepted and migrated",
			rep.Errors, rep.Accepted, rep.Migrations)
	}
	met, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{
		"vmalloc_cluster_admissions_total":     rep.Accepted,
		"vmalloc_cluster_migrations_total":     rep.Migrations,
		"vmalloc_cluster_consolidations_total": rep.Consolidations,
	} {
		if got := met[name]; got != float64(want) {
			t.Errorf("%s = %g, want %d", name, got, want)
		}
	}
	if got := met["vmalloc_cluster_fsync_groups_total"]; got <= 0 {
		t.Errorf("vmalloc_cluster_fsync_groups_total = %g, want > 0", got)
	}

	if err := d.cmd.Process.Signal(syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	d.waitLog(t, "flight recorder dumped")
	if err := client.WaitReady(ctx, time.Second); err != nil {
		t.Fatalf("after SIGQUIT: %v", err)
	}

	before, err := client.StateSummary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	d.terminate(t)
	if fi, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil || fi.Size() == 0 {
		t.Fatalf("no snapshot after SIGTERM: %v", err)
	}

	restarted := startDaemon(t, args...)
	after, err := loadgen.NewClient(restarted.base).StateSummary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Digest != before.Digest {
		t.Errorf("state digest %s after restart, %s before", after.Digest, before.Digest)
	}
	restarted.terminate(t)
}

// TestCrashRestartReportsRestore kills vmserve -9 on a journal that was
// never snapshotted, so the restarted process replays every record: its
// serving line and /metrics name the record count, one per admission, and
// a replay phase that took time.
func TestCrashRestartReportsRestore(t *testing.T) {
	args := []string{"-servers", "4", "-journal", t.TempDir(), "-snapshot-every", "-1", "-unsafe-no-fsync"}
	d := startDaemon(t, args...)
	ctx := context.Background()
	const admits = 12
	for id := 1; id <= admits; id++ {
		adms, err := loadgen.NewClient(d.base).Admit(ctx, []api.AdmitRequest{{ID: id, Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 30}})
		if err != nil || !adms[0].Accepted {
			t.Fatalf("admit %d: %v %+v", id, err, adms)
		}
	}
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-d.exited

	restarted := startDaemon(t, args...)
	restarted.waitLog(t, "restoreRecords="+strconv.Itoa(admits))
	met, err := loadgen.NewClient(restarted.base).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := met["vmalloc_cluster_restore_records"]; got != admits {
		t.Errorf("vmalloc_cluster_restore_records = %g, want %d", got, admits)
	}
	if got := met[`vmalloc_cluster_restore_seconds{phase="replay"}`]; !(got > 0) {
		t.Errorf(`vmalloc_cluster_restore_seconds{phase="replay"} = %g, want > 0`, got)
	}
	if _, ok := met[`vmalloc_cluster_restore_seconds{phase="snapshot"}`]; !ok {
		t.Error(`no vmalloc_cluster_restore_seconds{phase="snapshot"} sample`)
	}
	restarted.terminate(t)
}

// TestSigquitDumpIsTheDebugJSON runs vmserve with -log-format json:
// every line the SIGQUIT dump writes nests, under "entry", the object the
// matching /v1/debug route serves for that entry, and the dump holds
// every decision, the newest spans and the newest energy samples.
func TestSigquitDumpIsTheDebugJSON(t *testing.T) {
	d := startDaemon(t, "-servers", "4", "-log-format", "json")
	post := func(path, body string, header ...string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, d.base+path, strings.NewReader(body))
		if len(header) == 2 {
			req.Header.Set(header[0], header[1])
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	post("/v1/vms", `[{"id":1,"demand":{"cpu":1,"mem":1},"durationMinutes":30},{"id":2,"demand":{"cpu":99,"mem":1},"durationMinutes":5}]`,
		"traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	post("/v1/clock", `{"now":10}`)
	post("/v1/migrations", `{"vm":1,"server":4}`)

	if err := d.cmd.Process.Signal(syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	d.waitLog(t, `"msg":"flight recorder dumped"`)
	get := func(path string, out any) {
		t.Helper()
		resp, err := http.Get(d.base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	var decisions api.DecisionsResponse
	get("/v1/debug/decisions", &decisions)
	var traces api.TracesResponse
	get("/v1/debug/traces", &traces)
	var energy api.EnergyResponse
	get("/v1/debug/energy", &energy)
	served := map[string]map[int64]any{"decision": {}, "span": {}, "energy sample": {}}
	for _, dec := range decisions.Decisions {
		served["decision"][dec.Seq] = dec
	}
	for _, tr := range traces.Traces {
		for _, sp := range tr.Spans {
			served["span"][sp.Seq] = sp
		}
	}
	for _, s := range energy.Samples {
		served["energy sample"][s.Seq] = s
	}

	dumped := map[string]int{}
	for _, l := range strings.Split(d.out.String(), "\n") {
		var line struct {
			Msg   string          `json:"msg"`
			Entry json.RawMessage `json:"entry"`
		}
		if json.Unmarshal([]byte(l), &line) != nil || served[line.Msg] == nil {
			continue
		}
		dumped[line.Msg]++
		var seq struct{ Seq int64 }
		json.Unmarshal(line.Entry, &seq) //nolint:errcheck // a missing seq matches nothing
		want, ok := served[line.Msg][seq.Seq]
		if !ok {
			t.Errorf("dumped %s %s: no entry with seq %d served", line.Msg, line.Entry, seq.Seq)
			continue
		}
		got := reflect.New(reflect.TypeOf(want))
		if err := json.Unmarshal(line.Entry, got.Interface()); err != nil || !reflect.DeepEqual(got.Elem().Interface(), want) {
			t.Errorf("dumped %s %s (err %v), served %+v", line.Msg, line.Entry, err, want)
		}
	}
	if dumped["decision"] != len(decisions.Decisions) || dumped["decision"] < 3 || dumped["span"] == 0 || dumped["energy sample"] == 0 {
		t.Errorf("dump lines %v, want all %d decisions and some spans and energy samples", dumped, len(decisions.Decisions))
	}
}

// TestRunPolicies: every name of the online policy lookup boots as
// -policy and is the champion GET /v1/state names; an unknown name is a
// usage error.
func TestRunPolicies(t *testing.T) {
	ctx := context.Background()
	for _, name := range online.PolicyNames() {
		base, stop := bootDaemon(t, "-policy", name)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/state", nil)
		_, body, err := api.Call(http.DefaultClient, req, api.MaxBodyBytes)
		var st api.StateResponse
		if err == nil {
			err = api.Unmarshal(body, &st)
		}
		if err != nil {
			t.Fatal(err)
		}
		if st.Policy != "online/"+name {
			t.Errorf("-policy %s: state names %q", name, st.Policy)
		}
		stop()
	}
	if err := run(ctx, []string{"-policy", "nope"}, io.Discard); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("-policy nope: err = %v, want unknown policy", err)
	}
}

// TestRunReplay: -replay over a copy of a running daemon's journal, taken
// before shutdown compacts it, prints one row per policy without serving,
// and the champion's row diverges nowhere and ends at the live fleet's
// energy, bit for bit.
func TestRunReplay(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	base, stop := bootDaemon(t, "-journal", dir, "-snapshot-every", "-1", "-policy", "delay-aware")
	client := loadgen.NewClient(base)
	var reqs []api.AdmitRequest
	for id := 1; id <= 12; id++ {
		reqs = append(reqs, api.AdmitRequest{ID: id, Demand: model.Resources{CPU: float64(1 + id%4), Mem: 2}, Start: id / 3, DurationMinutes: 5 + 3*id})
	}
	if _, err := client.Admit(ctx, reqs); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Release(ctx, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := client.AdvanceClock(ctx, 20); err != nil {
		t.Fatal(err)
	}
	st, err := client.StateSummary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	copyDir := t.TempDir()
	for _, name := range []string{"journal.jsonl", "snapshot.json"} {
		if b, err := os.ReadFile(filepath.Join(dir, name)); err == nil {
			if err := os.WriteFile(filepath.Join(copyDir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop()

	var out bytes.Buffer
	if err := run(ctx, []string{"-servers", "4", "-policy", "delay-aware", "-journal", copyDir, "-replay", "-addr", "127.0.0.1:0"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1+len(online.PolicyNames()) {
		t.Fatalf("-replay printed:\n%s\nwant a header and one row per policy", out.String())
	}
	var champion []string
	for _, l := range lines[1:] {
		if f := strings.Fields(l); f[0] == "*" {
			champion = f
		}
	}
	if len(champion) != 9 || champion[1] != "online/delay-aware" || champion[2] != "12" || champion[3] != "0" {
		t.Fatalf("champion row %q, want online/delay-aware with 12 decisions and 0 divergences:\n%s", champion, out.String())
	}
	if e, err := strconv.ParseFloat(champion[5], 64); err != nil || e != st.TotalEnergy {
		t.Errorf("champion energy %s, live %v", champion[5], st.TotalEnergy)
	}
	if err := run(ctx, []string{"-replay"}, io.Discard); err == nil || !strings.Contains(err.Error(), "-journal") {
		t.Errorf("-replay without -journal: err = %v", err)
	}
}

// TestRunBadDelayPenalty: a negative or non-finite -delay-penalty is a
// usage error for delay-aware, as champion or in -replay's table, and the
// daemon never starts.
func TestRunBadDelayPenalty(t *testing.T) {
	for _, args := range [][]string{
		{"-policy", "delay-aware", "-delay-penalty", "-5"},
		{"-policy", "delay-aware", "-delay-penalty", "NaN"},
		{"-policy", "delay-aware", "-delay-penalty", "+Inf"},
		{"-replay", "-journal", t.TempDir(), "-delay-penalty", "-5"},
	} {
		var pe *online.DelayPenaltyError
		if err := run(context.Background(), append(args, "-addr", "127.0.0.1:0"), io.Discard); !errors.As(err, &pe) {
			t.Errorf("%v: error %v, want a *online.DelayPenaltyError", args, err)
		}
	}
}

// TestRunBadMigrationRates: a negative or non-finite -migration-cost-per-gb
// is refused before the daemon starts, and the process exits 1.
func TestRunBadMigrationRates(t *testing.T) {
	for _, args := range [][]string{
		{"-migration-cost-per-gb", "NaN"},
		{"-migration-cost-per-gb", "+Inf"},
		{"-migration-cost-per-gb", "-5"},
	} {
		var ce *cluster.ConfigValueError
		if err := run(context.Background(), append(args, "-addr", "127.0.0.1:0"), io.Discard); !errors.As(err, &ce) {
			t.Errorf("%v: error %v, want a *cluster.ConfigValueError", args, err)
		}
	}
	out, err := daemonCmd(t, "-migration-cost-per-gb", "NaN").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(string(out), "MigrationCostPerGB NaN") {
		t.Errorf("vmserve -migration-cost-per-gb NaN: %v, output %q; want exit 1 naming the cost", err, out)
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

// TestRunRemovedFlag: admission waits on no timer, the admission scan
// is one sequential pass, counterfactuals are replayed from the journal,
// consolidation runs only on POST /v1/consolidate with its policy in the
// request, and the donor threshold is fixed, so the flags that set the
// batch timer, the scan's worker pool, the in-process shadow policies,
// the background pass, its default policy and the threshold are usage
// errors, not silent no-ops.
func TestRunRemovedFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-batch-window", "1ms"}, {"-parallel", "2"}, {"-shadow-policy", "ffps"},
		{"-consolidate-interval", "30s"}, {"-consolidate-policy", "min-utilization"}, {"-donor-utilization", "0.5"},
	} {
		var out bytes.Buffer
		err := run(context.Background(), args, &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: error %v, want flag provided but not defined", args[0], err)
		}
	}
}
