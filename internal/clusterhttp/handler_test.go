package clusterhttp

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
)

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	servers := make([]model.Server, 4)
	for i := range servers {
		servers[i] = model.Server{
			ID:             i + 1,
			Capacity:       model.Resources{CPU: 10, Mem: 16},
			PIdle:          100,
			PPeak:          200,
			TransitionTime: 1,
		}
	}
	c, err := cluster.Open(cluster.Config{Servers: servers, IdleTimeout: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestStateDigestHeader: /v1/state carries a digest header that matches
// both the served body and the digest of Cluster.StateJSON, so clients compare
// states across restarts without shipping the whole body.
func TestStateDigestHeader(t *testing.T) {
	c := testCluster(t)
	srv := httptest.NewServer(New(c, nil))
	defer srv.Close()

	if _, err := http.Post(srv.URL+"/v1/vms", "application/json",
		strings.NewReader(`{"demand":{"cpu":1,"mem":1},"durationMinutes":30}`)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Admitted int `json:"admitted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Admitted != 1 {
		t.Errorf("state shows %d admitted, want 1", body.Admitted)
	}
	got := resp.Header.Get(api.StateDigestHeader)
	state, err := c.StateJSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := api.DigestBytes(state); got != want {
		t.Errorf("digest header %q, digest of StateJSON %q", got, want)
	}
	if len(got) != 64 {
		t.Errorf("digest %q is not hex SHA-256", got)
	}
}

// TestMigrationRoutes drives the consolidation surface end to end over
// HTTP: a manual migration, the history endpoint with its filters, and a
// consolidation pass with typed request and response bodies.
func TestMigrationRoutes(t *testing.T) {
	c := testCluster(t)
	srv := httptest.NewServer(New(c, nil))
	defer srv.Close()

	if _, err := http.Post(srv.URL+"/v1/vms", "application/json",
		strings.NewReader(`[{"id":1,"demand":{"cpu":2,"mem":2},"start":1,"durationMinutes":50},{"id":2,"demand":{"cpu":2,"mem":2},"start":1,"durationMinutes":60}]`)); err != nil {
		t.Fatal(err)
	}

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	// Both VMs packed onto one server: find it, then move VM 2 elsewhere.
	st := c.State()
	from := st.Servers[st.VMs[0].Server].ID
	to := from%4 + 1
	status, body := post("/v1/migrations", `{"vm":2,"server":`+strconv.Itoa(to)+`}`)
	if status != http.StatusOK {
		t.Fatalf("migrate: %d %s", status, body)
	}
	var rec api.MigrationRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.VM != 2 || rec.From != from || rec.To != to || rec.Policy != "manual" {
		t.Errorf("migration record %+v, want vm 2 from %d to %d", rec, from, to)
	}

	// Infeasible retry: the VM already lives on the target.
	if status, body = post("/v1/migrations", `{"vm":2,"server":`+strconv.Itoa(to)+`}`); status != http.StatusConflict {
		t.Errorf("repeat migrate: %d %s, want 409", status, body)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Code != api.CodeMigrationInfeasible {
		t.Errorf("repeat migrate envelope %s (err %v), want code migration_infeasible", body, err)
	}
	if status, body = post("/v1/migrations", `{"vm":99,"server":1}`); status != http.StatusNotFound {
		t.Errorf("unknown vm: %d %s, want 404", status, body)
	}

	// Let the migration target finish waking, then a consolidation pass
	// with an empty body drains the two half-empty servers back together.
	if status, body = post("/v1/clock", `{"now":5}`); status != http.StatusOK {
		t.Fatalf("clock: %d %s", status, body)
	}
	status, body = post("/v1/consolidate", "")
	if status != http.StatusOK {
		t.Fatalf("consolidate: %d %s", status, body)
	}
	var cres api.ConsolidateResponse
	if err := json.Unmarshal(body, &cres); err != nil {
		t.Fatal(err)
	}
	if cres.Policy != api.PolicyMinMigrationTime || cres.Executed != 1 || len(cres.Moves) != 1 {
		t.Errorf("consolidation %+v, want one default-policy move", cres)
	}
	if status, body = post("/v1/consolidate", `{"policy":"sideways"}`); status != http.StatusBadRequest {
		t.Errorf("bad policy: %d %s, want 400", status, body)
	}

	// History: both migrations, newest trimmed by ?limit=, filtered by ?vm=.
	get := func(path string) api.MigrationsResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
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
		t.Fatalf("history %+v, want 2 records", all)
	}
	if last := get("/v1/migrations?limit=1"); len(last.Migrations) != 1 || last.Migrations[0] != all.Migrations[1] {
		t.Errorf("limit=1 returned %+v, want the newest record", last.Migrations)
	}
	if one := get("/v1/migrations?vm=2"); len(one.Migrations) != 1 || one.Migrations[0].VM != 2 {
		t.Errorf("vm=2 filter returned %+v", one.Migrations)
	}

	// The state carries the aggregates.
	st = c.State()
	if st.Migrations != 2 || st.MigrationSaved != cres.EnergySavedWattMinutes {
		t.Errorf("state migrations=%d saved=%g, want 2 and %g", st.Migrations, st.MigrationSaved, cres.EnergySavedWattMinutes)
	}
}

// TestClassifyConsolidation pins the new error-code mappings without
// having to stage the races that produce them over HTTP.
func TestClassifyConsolidation(t *testing.T) {
	if status, code := classify(&cluster.MigrationInfeasibleError{VM: 1, Server: 2, Reason: "x"}); status != http.StatusConflict || code != api.CodeMigrationInfeasible {
		t.Errorf("MigrationInfeasibleError → %d %s", status, code)
	}
	if status, code := classify(cluster.ErrConsolidationBusy); status != http.StatusConflict || code != api.CodeConsolidationBusy {
		t.Errorf("ErrConsolidationBusy → %d %s", status, code)
	}
}

// TestErrorEnvelopes: every failure path answers with an
// api.ErrorEnvelope carrying the machine-readable code and the request
// id the caller sent.
func TestErrorEnvelopes(t *testing.T) {
	c := testCluster(t)
	srv := httptest.NewServer(New(c, nil))
	defer srv.Close()

	do := func(method, path, body string) (int, api.ErrorEnvelope) {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, srv.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.RequestIDHeader, "env-test")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env api.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s %s: error body is not an envelope: %v", method, path, err)
		}
		return resp.StatusCode, env
	}

	status, env := do(http.MethodPost, "/v1/vms", "{not json")
	if status != http.StatusBadRequest || env.Code != api.CodeBadRequest {
		t.Errorf("bad body: %d %+v", status, env)
	}
	if env.RequestID != "env-test" {
		t.Errorf("envelope does not echo the request id: %+v", env)
	}

	// A closed cluster answers 503/overloaded on every mutation.
	c.Close()
	if status, env = do(http.MethodPost, "/v1/vms", `{"demand":{"cpu":1,"mem":1},"durationMinutes":5}`); status != http.StatusServiceUnavailable || env.Code != api.CodeOverloaded {
		t.Errorf("closed admit: %d %+v", status, env)
	}
	if env.Message == "" {
		t.Error("closed admit envelope has no message")
	}
}

// TestLifetimeCountersSurviveRestart: the /metrics counters of what the
// journal records read the replayed counts, not a process-lifetime copy.
// A journaled cluster admits, releases, migrates, consolidates and adopts,
// closes, and reopens on its directory: /metrics then equals /v1/state
// for admitted, released, migrations and the saved estimate, and counts
// the adoption.
func TestLifetimeCountersSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() (*cluster.Cluster, *httptest.Server) {
		servers := make([]model.Server, 4)
		for i := range servers {
			servers[i] = model.Server{ID: i + 1, Capacity: model.Resources{CPU: 10, Mem: 16},
				PIdle: 100, PPeak: 200, TransitionTime: 1}
		}
		c, err := cluster.Open(cluster.Config{Servers: servers, IdleTimeout: 2, Dir: dir, DisableFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		return c, httptest.NewServer(New(c, nil))
	}
	c, srv := open()
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, resp.StatusCode, b)
		}
	}
	post("/v1/vms", `[{"id":1,"demand":{"cpu":2,"mem":2},"start":1,"durationMinutes":50},`+
		`{"id":2,"demand":{"cpu":2,"mem":2},"start":1,"durationMinutes":60},`+
		`{"id":3,"demand":{"cpu":1,"mem":1},"start":1,"durationMinutes":40}]`)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/vms/3", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("release: %v %v", resp, err)
	}
	resp.Body.Close()
	st := c.State()
	from := st.Servers[st.VMs[0].Server].ID
	post("/v1/migrations", `{"vm":2,"server":`+strconv.Itoa(from%4+1)+`}`)
	post("/v1/clock", `{"now":5}`)
	post("/v1/consolidate", "")
	post("/v1/adoptions", `{"vm":{"id":42,"demand":{"cpu":1,"mem":1},"start":1,"end":30},"start":2}`)
	srv.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c, srv = open()
	defer c.Close()
	defer srv.Close()
	var state api.StateResponse
	getJSON(t, srv.URL+"/v1/state", &state)
	if state.Admitted != 3 || state.Released != 1 || state.Migrations != 2 || state.MigrationSaved <= 0 {
		t.Fatalf("state after reopen: admitted %d released %d migrations %d saved %g, want 3, 1, 2 and a saving",
			state.Admitted, state.Released, state.Migrations, state.MigrationSaved)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines, err := obs.ReadExposition(data)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, l := range lines {
		if l.Kind == "" {
			got[l.Series()] = l.Value
		}
	}
	for name, want := range map[string]float64{
		"vmalloc_cluster_admissions_total":                    float64(state.Admitted),
		"vmalloc_cluster_releases_total":                      float64(state.Released),
		"vmalloc_cluster_migrations_total":                    float64(state.Migrations),
		"vmalloc_cluster_migration_energy_saved_watt_minutes": state.MigrationSaved,
		"vmalloc_cluster_adoptions_total":                     1,
	} {
		if got[name] != want {
			t.Errorf("%s = %g after reopen, want %g", name, got[name], want)
		}
	}
}
