package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/model"
	"vmalloc/internal/workload"
)

func testServers(n int) []model.Server {
	out := make([]model.Server, n)
	for i := range out {
		out[i] = model.Server{
			ID:             i + 1,
			Capacity:       model.Resources{CPU: 10, Mem: 16},
			PIdle:          100,
			PPeak:          200,
			TransitionTime: 1,
		}
	}
	return out
}

func testSpec(seed int64) ScheduleSpec {
	return ScheduleSpec{
		Arrivals: workload.DiurnalSpec{
			NumVMs: 200, MeanInterArrival: 1.5, MeanLength: 40, PeakToTrough: 4, Period: 240,
		},
		ReleaseFraction: 0.3,
		Seed:            seed,
	}
}

func TestBuildScheduleDeterministic(t *testing.T) {
	a, err := BuildSchedule(testSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSchedule(testSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (spec, seed) should produce identical schedules")
	}
	c, err := BuildSchedule(testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should produce different schedules")
	}
}

func TestBuildScheduleInvariants(t *testing.T) {
	spec := testSpec(42)
	sched, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]api.AdmitRequest)
	releases := 0
	maxEnd := 0
	lastMinute := 0
	for _, st := range sched.Steps {
		if st.Minute <= lastMinute {
			t.Fatalf("steps not strictly increasing: %d after %d", st.Minute, lastMinute)
		}
		lastMinute = st.Minute
		for _, req := range st.Admits {
			if _, dup := seen[req.ID]; dup {
				t.Fatalf("duplicate vm id %d", req.ID)
			}
			seen[req.ID] = req
			if req.Start != st.Minute || req.Start < 1 {
				t.Fatalf("vm %d start %d in step minute %d", req.ID, req.Start, st.Minute)
			}
			if req.DurationMinutes < 1 {
				t.Fatalf("vm %d duration %d", req.ID, req.DurationMinutes)
			}
			if end := req.Start + req.DurationMinutes - 1; end > maxEnd {
				maxEnd = end
			}
		}
		for _, id := range st.Releases {
			req, ok := seen[id]
			if !ok {
				t.Fatalf("release of vm %d scheduled before (or without) its admission", id)
			}
			end := req.Start + req.DurationMinutes - 1
			if st.Minute <= req.Start || st.Minute > end {
				t.Fatalf("release of vm %d at %d outside (%d, %d]", id, st.Minute, req.Start, end)
			}
			releases++
		}
	}
	if len(seen) != spec.Arrivals.NumVMs {
		t.Fatalf("generated %d VMs, want %d", len(seen), spec.Arrivals.NumVMs)
	}
	for id := 1; id <= spec.Arrivals.NumVMs; id++ {
		if _, ok := seen[id]; !ok {
			t.Fatalf("vm id %d missing: ids must cover 1..N", id)
		}
	}
	if releases != sched.NumReleases {
		t.Fatalf("NumReleases = %d, counted %d", sched.NumReleases, releases)
	}
	if sched.Horizon != maxEnd {
		t.Fatalf("Horizon = %d, max end %d", sched.Horizon, maxEnd)
	}
	if releases == 0 {
		t.Fatal("spec with ReleaseFraction 0.3 over 200 VMs should schedule releases")
	}
	if want := spec.Arrivals.NumVMs + releases + len(sched.Steps) + 1; sched.Ops() != want {
		t.Fatalf("Ops() = %d, want %d", sched.Ops(), want)
	}
}

func TestParseMetrics(t *testing.T) {
	const text = `# HELP vmalloc_cluster_admissions_total Total admissions.
# TYPE vmalloc_cluster_admissions_total counter
vmalloc_cluster_admissions_total 41
vmalloc_cluster_energy_watt_minutes 1234.5
vmalloc_server_state{server="1"} 2

`
	m, err := ParseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 {
		t.Fatalf("parsed %d series, want 3: %v", len(m), m)
	}
	if m["vmalloc_cluster_admissions_total"] != 41 {
		t.Fatalf("admissions = %g", m["vmalloc_cluster_admissions_total"])
	}
	if m[`vmalloc_server_state{server="1"}`] != 2 {
		t.Fatalf("labelled series lost: %v", m)
	}
	before := Metrics{"vmalloc_cluster_admissions_total": 40}
	d := m.Delta(before)
	if d["vmalloc_cluster_admissions_total"] != 1 || d["vmalloc_cluster_energy_watt_minutes"] != 1234.5 {
		t.Fatalf("delta = %v", d)
	}
	if _, err := ParseMetrics(strings.NewReader("garbage-without-value\n")); err == nil {
		t.Fatal("malformed line should error")
	}
}

// TestClientRetryIdempotency scripts a flaky server: the first admission
// attempt dies with a 500, the retry answers "already resident" — the
// client must fold that into an accepted outcome. Same for a release
// whose retry sees 404.
func TestClientRetryIdempotency(t *testing.T) {
	var admitCalls, releaseCalls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/vms":
			if admitCalls.Add(1) == 1 {
				http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`[{"id":7,"accepted":false,"reason":"vm 7 already resident"}]`))
		case r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, "/v1/vms/"):
			if releaseCalls.Add(1) == 1 {
				http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
				return
			}
			http.Error(w, `{"error":"no such vm"}`, http.StatusNotFound)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Backoff = time.Millisecond
	adms, err := c.Admit(context.Background(), []api.AdmitRequest{{ID: 7, Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(adms) != 1 || !adms[0].Accepted {
		t.Fatalf("retried already-resident rejection not folded to accepted: %+v", adms)
	}
	if got := c.Retried(); got != 1 {
		t.Fatalf("Retried() = %d, want 1", got)
	}

	released, err := c.Release(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !released {
		t.Fatal("404 on a retried release should count as released")
	}

	// A first-attempt 404 is a genuine miss, not an idempotent success.
	released, err = c.Release(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if released {
		t.Fatal("first-attempt 404 should report released=false")
	}
}

func TestClientRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.Backoff = time.Millisecond
	c.Retries = 2
	if _, err := c.AdvanceClock(context.Background(), 5); err == nil {
		t.Fatal("want error after retries exhausted")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

// TestClientAdmitChecksAnswerIDs: a server that answers a batch with two
// outcomes swapped would have the runner record each under the other
// VM; the client refuses the answer, naming the first bad position.
func TestClientAdmitChecksAnswerIDs(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`[{"id":1,"accepted":true},{"id":3,"accepted":false,"reason":"full"},{"id":2,"accepted":true}]`))
	}))
	defer srv.Close()
	reqs := make([]api.AdmitRequest, 3)
	for i := range reqs {
		reqs[i] = api.AdmitRequest{ID: i + 1, Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 5}
	}
	_, err := NewClient(srv.URL).Admit(context.Background(), reqs)
	if err == nil || !strings.Contains(err.Error(), "answer 1 is for vm 3, its request was for vm 2") {
		t.Fatalf("swapped answers: err = %v, want answer 1 named", err)
	}
}

// newTestServer boots a real volatile cluster behind the real HTTP
// handler — the full vmserve surface, in process.
func newTestServer(t *testing.T, n int) (*httptest.Server, *cluster.Cluster) {
	t.Helper()
	c, err := cluster.Open(cluster.Config{Servers: testServers(n), IdleTimeout: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(clusterhttp.New(c, nil))
	t.Cleanup(srv.Close)
	return srv, c
}

// TestRunnerEndToEnd replays a seeded schedule twice against fresh
// clusters and demands identical outcome digests — the acceptance
// criterion that the same -seed yields the same admission/rejection
// sequence — plus agreement between the report and the server state.
func TestRunnerEndToEnd(t *testing.T) {
	spec := ScheduleSpec{
		Arrivals: workload.DiurnalSpec{
			NumVMs: 120, MeanInterArrival: 0.4, MeanLength: 25, PeakToTrough: 1, Period: 1,
		},
		ReleaseFraction: 0.25,
		Seed:            99,
	}
	sched, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Report {
		srv, cl := newTestServer(t, 3) // small fleet: force rejections
		client := NewClient(srv.URL)
		r := &Runner{Client: client, Schedule: sched, Opts: Options{Workers: 4}}
		rep, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 {
			t.Fatalf("run reported %d errors", rep.Errors)
		}
		if rep.Sent != spec.Arrivals.NumVMs || rep.Accepted+rep.Rejected != rep.Sent {
			t.Fatalf("sent %d accepted %d rejected %d", rep.Sent, rep.Accepted, rep.Rejected)
		}
		if rep.Rejected == 0 {
			t.Fatal("3 small servers under this load should reject some VMs")
		}
		if rep.Releases+rep.ReleaseMisses+rep.ReleaseSkips != sched.NumReleases {
			t.Fatalf("release accounting: %d+%d+%d != %d",
				rep.Releases, rep.ReleaseMisses, rep.ReleaseSkips, sched.NumReleases)
		}
		if rep.ClockTicks != len(sched.Steps)+1 {
			t.Fatalf("clock ticks %d, want %d", rep.ClockTicks, len(sched.Steps)+1)
		}
		st := cl.State()
		if rep.FinalNow != st.Now || rep.FinalResidents != len(st.VMs) {
			t.Fatalf("report final state (now=%d residents=%d) disagrees with server (now=%d residents=%d)",
				rep.FinalNow, rep.FinalResidents, st.Now, len(st.VMs))
		}
		if rep.FinalNow != sched.Horizon+1 {
			t.Fatalf("final clock %d, want horizon+1 = %d", rep.FinalNow, sched.Horizon+1)
		}
		if rep.StateDigest == "" || len(rep.OutcomeDigest) != 64 {
			t.Fatalf("missing digests: state=%q outcome=%q", rep.StateDigest, rep.OutcomeDigest)
		}
		return rep
	}
	a := run()
	b := run()
	if a.OutcomeDigest != b.OutcomeDigest {
		t.Fatal("same seed against fresh servers should yield identical outcome digests")
	}
	if a.StateDigest != b.StateDigest {
		t.Fatal("same seed against fresh servers should yield identical final state digests")
	}
	if a.MetricsDelta["vmalloc_cluster_admissions_total"] != float64(a.Accepted) {
		t.Fatalf("metrics delta admissions %g != accepted %d",
			a.MetricsDelta["vmalloc_cluster_admissions_total"], a.Accepted)
	}
	if a.MetricsDelta["vmalloc_cluster_rejections_total"] != float64(a.Rejected) {
		t.Fatalf("metrics delta rejections %g != rejected %d",
			a.MetricsDelta["vmalloc_cluster_rejections_total"], a.Rejected)
	}
}
