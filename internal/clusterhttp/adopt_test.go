package clusterhttp

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
)

func postAdopt(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/adoptions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestAdoptionsEndpoint: POST /v1/adoptions places a VM under its
// original identity, is idempotent on retry, and answers infeasible
// adoptions with the shared migration_infeasible code so the gate's
// rebalancer can treat them as skips.
func TestAdoptionsEndpoint(t *testing.T) {
	c := testCluster(t)
	srv := httptest.NewServer(New(c, nil))
	defer srv.Close()

	if err := c.AdvanceTo(4); err != nil {
		t.Fatal(err)
	}
	body := `{"vm":{"id":42,"demand":{"cpu":2,"mem":2},"start":1,"end":20},"start":2}`
	resp, raw := postAdopt(t, srv.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adopt status %d: %s", resp.StatusCode, raw)
	}
	var ar api.AdoptResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.VM != 42 || ar.Start != 2 || ar.End != 21 || ar.Handoff != 5 {
		t.Fatalf("adopt response %+v, want vm 42 interval (2, 21) handoff 5", ar)
	}

	// Retrying the exact drain op re-acks the same placement.
	resp2, raw2 := postAdopt(t, srv.URL, body)
	var ar2 api.AdoptResponse
	if resp2.StatusCode != http.StatusOK || json.Unmarshal(raw2, &ar2) != nil || ar2 != ar {
		t.Fatalf("retried adopt status %d body %s, want the original %+v", resp2.StatusCode, raw2, ar)
	}
	var met bytes.Buffer
	if err := c.WriteMetrics(&met); err != nil || !strings.Contains(met.String(), "\nvmalloc_cluster_adoptions_total 1\n") {
		t.Fatalf("adoptions counter (err %v), want 1:\n%s", err, met.String())
	}

	// A VM whose interval has fully elapsed is a typed 409.
	if err := c.AdvanceTo(60); err != nil {
		t.Fatal(err)
	}
	resp3, raw3 := postAdopt(t, srv.URL, `{"vm":{"id":7,"demand":{"cpu":1,"mem":1},"start":1,"end":10},"start":1}`)
	var env api.ErrorEnvelope
	if resp3.StatusCode != http.StatusConflict || json.Unmarshal(raw3, &env) != nil || env.Code != api.CodeMigrationInfeasible {
		t.Fatalf("expired adopt status %d body %s, want 409 %s", resp3.StatusCode, raw3, api.CodeMigrationInfeasible)
	}

	// Malformed bodies are 400 bad_request.
	resp4, raw4 := postAdopt(t, srv.URL, `{"vm":{"id":1},"start":0}`)
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid adopt status %d body %s, want 400", resp4.StatusCode, raw4)
	}
}

// TestEpochFence: the passive ratchet refuses requests stamped with an
// epoch below the highest this shard has seen, with a stale_epoch
// envelope; unstamped requests always pass, and garbage stamps are 400s.
func TestEpochFence(t *testing.T) {
	c := testCluster(t)
	srv := httptest.NewServer(New(c, nil))
	defer srv.Close()

	get := func(epoch string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/state", nil)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != "" {
			req.Header.Set(api.EpochHeader, epoch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	// Headerless and first-stamp requests pass; the stamp ratchets.
	for _, epoch := range []string{"", "3", "5", "5", ""} {
		if resp, raw := get(epoch); resp.StatusCode != http.StatusOK {
			t.Fatalf("epoch %q status %d: %s", epoch, resp.StatusCode, raw)
		}
	}
	// Below the high-water mark → typed 409 with the recovery code.
	resp, raw := get("4")
	var env api.ErrorEnvelope
	if resp.StatusCode != http.StatusConflict || json.Unmarshal(raw, &env) != nil || env.Code != api.CodeStaleEpoch {
		t.Fatalf("stale epoch status %d body %s, want 409 %s", resp.StatusCode, raw, api.CodeStaleEpoch)
	}
	if env.RequestID == "" {
		t.Fatal("stale_epoch envelope lost the request id")
	}
	// Unparseable stamps are refused outright, not silently ignored.
	for _, bad := range []string{"x", "-1", "1.5"} {
		if resp, raw := get(bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("epoch %q status %d body %s, want 400", bad, resp.StatusCode, raw)
		}
	}
	// The fence only ratchets on accepted stamps: epoch 5 still passes.
	if resp, _ := get("5"); resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch 5 after garbage: status %d, want 200", resp.StatusCode)
	}
}

// TestAdoptDecisionFilter: adoptions appear in the flight recorder and
// /v1/debug/decisions accepts op=adopt.
func TestAdoptDecisionFilter(t *testing.T) {
	rec := obs.NewFlightRecorder(64)
	c, err := cluster.Open(cluster.Config{
		Servers:     []model.Server{{ID: 1, Capacity: model.Resources{CPU: 10, Mem: 16}, PIdle: 100, PPeak: 200, TransitionTime: 1}},
		IdleTimeout: 2,
		Recorder:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(New(c, nil))
	defer srv.Close()

	if _, raw := postAdopt(t, srv.URL, `{"vm":{"id":9,"demand":{"cpu":1,"mem":1},"start":1,"end":30},"start":1}`); len(raw) == 0 {
		t.Fatal("empty adopt response")
	}
	resp, err := http.Get(srv.URL + "/v1/debug/decisions?op=adopt")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("op=adopt filter status %d, want 200", resp.StatusCode)
	}
	var body struct {
		Decisions []struct {
			Op string `json:"op"`
			VM int    `json:"vm"`
		} `json:"decisions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Decisions) != 1 || body.Decisions[0].Op != "adopt" || body.Decisions[0].VM != 9 {
		t.Fatalf("op=adopt decisions %+v, want one adopt for vm 9", body.Decisions)
	}
}
