package clusterhttp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vmalloc/internal/cluster"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
	"vmalloc/internal/promlint"
)

// obsCluster builds a cluster wired to a flight recorder (nil for none)
// and the handler around it, so decisions flow end to end.
func obsCluster(t *testing.T, rec *obs.FlightRecorder) (*cluster.Cluster, *httptest.Server) {
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
	c, err := cluster.Open(cluster.Config{
		Servers:     servers,
		IdleTimeout: 2,
		Recorder:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(New(c, nil))
	t.Cleanup(srv.Close)
	return c, srv
}

// TestDebugDecisions: admissions, rejections and releases made over HTTP
// show up in GET /v1/debug/decisions with the caller's request id, the
// batch id and per-stage durations, and the query filters work.
func TestDebugDecisions(t *testing.T) {
	rec := obs.NewFlightRecorder(64)
	_, srv := obsCluster(t, rec)

	post := func(id string, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/vms", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.RequestIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	post("trace-admit", `{"id":7,"demand":{"cpu":1,"mem":1},"durationMinutes":30}`)
	// An impossible demand is a recorded rejection, not an HTTP error.
	post("trace-reject", `{"id":8,"demand":{"cpu":999,"mem":999},"durationMinutes":30}`)
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/vms/7", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "trace-release")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release status %d", resp.StatusCode)
	}

	fetch := func(query string) []obs.Decision {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/debug/decisions" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("decisions status %d", resp.StatusCode)
		}
		var body struct {
			Count     int            `json:"count"`
			Decisions []obs.Decision `json:"decisions"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Count != len(body.Decisions) {
			t.Fatalf("count %d but %d decisions", body.Count, len(body.Decisions))
		}
		return body.Decisions
	}

	all := fetch("")
	if len(all) != 3 {
		t.Fatalf("got %d decisions, want 3: %+v", len(all), all)
	}
	byOp := map[string]obs.Decision{}
	for _, d := range all {
		byOp[d.Op] = d
	}
	admit := byOp[obs.OpAdmit]
	if admit.RequestID != "trace-admit" || admit.VM != 7 || admit.Server == 0 {
		t.Errorf("admit decision %+v", admit)
	}
	if admit.Batch == 0 {
		t.Errorf("admit decision has no batch id: %+v", admit)
	}
	if admit.Stages.Scan <= 0 || admit.Stages.Commit <= 0 {
		t.Errorf("admit stage timings missing: %+v", admit.Stages)
	}
	rej := byOp[obs.OpReject]
	if rej.RequestID != "trace-reject" || rej.VM != 8 || rej.Reason == "" {
		t.Errorf("reject decision %+v", rej)
	}
	rel := byOp[obs.OpRelease]
	if rel.RequestID != "trace-release" || rel.VM != 7 {
		t.Errorf("release decision %+v", rel)
	}

	if got := fetch("?vm=7"); len(got) != 2 {
		t.Errorf("vm=7 filter got %d, want 2", len(got))
	}
	if got := fetch("?op=reject"); len(got) != 1 || got[0].VM != 8 {
		t.Errorf("op=reject filter got %+v", got)
	}
	if got := fetch("?limit=1"); len(got) != 1 || got[0].Op != obs.OpRelease {
		t.Errorf("limit=1 got %+v, want the newest decision", got)
	}

	// Bad filters are 400s.
	for _, q := range []string{"?vm=x", "?limit=-1", "?op=explode"} {
		resp, err := http.Get(srv.URL + "/v1/debug/decisions" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestDebugDecisionsNoRecorder: without a recorder the endpoint serves an
// empty list, not null and not an error.
func TestDebugDecisionsNoRecorder(t *testing.T) {
	_, srv := obsCluster(t, nil)
	resp, err := http.Get(srv.URL + "/v1/debug/decisions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Decisions json.RawMessage `json:"decisions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(body.Decisions)) != "[]" {
		t.Errorf("decisions = %s, want []", body.Decisions)
	}
}

// TestRequestIDEcho: the handler echoes a valid client id and mints one
// otherwise, on every route.
func TestRequestIDEcho(t *testing.T) {
	_, srv := obsCluster(t, nil)
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "my-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "my-id" {
		t.Errorf("echoed id %q, want my-id", got)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); !obs.ValidRequestID(got) {
		t.Errorf("minted id %q is not valid", got)
	}
}

// TestMetricsLint drives traffic through every route, scrapes the full
// /metrics payload and lints it: well-formed sample lines, HELP/TYPE
// before the samples of each family, no duplicate series, histogram
// buckets cumulative with the +Inf bucket equal to _count, and the
// tentpole families present with the expected labels.
func TestMetricsLint(t *testing.T) {
	rec := obs.NewFlightRecorder(64)
	_, srv := obsCluster(t, rec)

	for i := 1; i <= 5; i++ {
		body := fmt.Sprintf(`{"id":%d,"demand":{"cpu":1,"mem":1},"durationMinutes":30}`, i)
		resp, err := http.Post(srv.URL+"/v1/vms", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	http.Get(srv.URL + "/v1/state")       //nolint:errcheck
	http.Get(srv.URL + "/healthz")        //nolint:errcheck
	http.Get(srv.URL + "/does-not-exist") //nolint:errcheck
	// Malformed admission: a counted 400.
	resp, err := http.Post(srv.URL+"/v1/vms", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	promlint.Lint(t, string(data))

	out := string(data)
	for _, want := range []string{
		`vmalloc_http_requests_total{route="POST /v1/vms",status="200"} 5`,
		`vmalloc_http_requests_total{route="POST /v1/vms",status="400"} 1`,
		`vmalloc_http_requests_total{route="unmatched",status="404"} 1`,
		`vmalloc_http_request_seconds_bucket{route="POST /v1/vms",`,
		`vmalloc_http_request_seconds_count{route="GET /healthz"} 1`,
		`vmalloc_build_info{`,
		`vmalloc_go_goroutines `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
