package shard

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
)

// TestEdgeParity: vmserve and a vmgate in front of it refuse the same
// input with the same HTTP status and the same envelope code, and both
// echo the caller's request id. One table for both daemons, because both
// read bodies, parse queries and write envelopes through the one edge in
// internal/api. Bodies the gate forwards verbatim are refused at the gate:
// the shard behind it sees no part of an over-limit or malformed one.
func TestEdgeParity(t *testing.T) {
	c, err := cluster.Open(cluster.Config{
		Servers:     []model.Server{{ID: 1, Capacity: model.Resources{CPU: 8, Mem: 16}, PIdle: 100, PPeak: 200, TransitionTime: 1}},
		IdleTimeout: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var shardHits atomic.Int32
	serve := clusterhttp.NewHandler(c)
	shardSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shardHits.Add(1)
		serve.ServeHTTP(w, r)
	}))
	defer shardSrv.Close()
	m, err := NewMap([]Shard{{Name: "s0", Addr: shardSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gateSrv := httptest.NewServer(NewGate(m, Config{Client: shardSrv.Client()}).Handler())
	defer gateSrv.Close()

	// A syntactically valid body padded to one byte over the cap: only its
	// size can refuse it.
	over := func(body string) string {
		return body + strings.Repeat(" ", api.MaxBodyBytes+1-len(body))
	}
	for _, row := range []struct {
		name, method, path, body string
		status                   int
		code                     string
		atGate                   bool // the gate refuses it without a fan-out
	}{
		{"admit over the cap", http.MethodPost, "/v1/vms", over(admitBody([]int{1})), 413, api.CodeBadRequest, true},
		{"clock over the cap", http.MethodPost, "/v1/clock", over(`{"now":5}`), 413, api.CodeBadRequest, true},
		{"migrate over the cap", http.MethodPost, "/v1/migrations", over(`{"vm":1,"server":1}`), 413, api.CodeBadRequest, true},
		{"consolidate over the cap", http.MethodPost, "/v1/consolidate", over(`{}`), 413, api.CodeBadRequest, true},
		{"clock trailing garbage", http.MethodPost, "/v1/clock", `{"now":5}garbage`, 400, api.CodeBadRequest, true},
		{"clock without now", http.MethodPost, "/v1/clock", `{}`, 400, api.CodeBadRequest, true},
		{"consolidate unknown policy", http.MethodPost, "/v1/consolidate", `{"policy":"sideways"}`, 400, api.CodeBadRequest, true},
		{"migrations limit=-1", http.MethodGet, "/v1/migrations?limit=-1", "", 400, api.CodeBadRequest, true},
		{"migrations limit=5abc", http.MethodGet, "/v1/migrations?limit=5abc", "", 400, api.CodeBadRequest, true},
		{"traces limit=-1", http.MethodGet, "/v1/debug/traces?limit=-1", "", 400, api.CodeBadRequest, true},
		{"traces limit=5abc", http.MethodGet, "/v1/debug/traces?limit=5abc", "", 400, api.CodeBadRequest, true},
		{"traces min=bogus", http.MethodGet, "/v1/debug/traces?min=bogus", "", 400, api.CodeBadRequest, true},
		{"energy limit=-1", http.MethodGet, "/v1/debug/energy?limit=-1", "", 400, api.CodeBadRequest, true},
		{"energy limit=5abc", http.MethodGet, "/v1/debug/energy?limit=5abc", "", 400, api.CodeBadRequest, true},
		{"energy since=x", http.MethodGet, "/v1/debug/energy?since=x", "", 400, api.CodeBadRequest, true},
		{"release bad id", http.MethodDelete, "/v1/vms/abc", "", 400, api.CodeBadRequest, true},
		{"release unknown vm", http.MethodDelete, "/v1/vms/99", "", 404, api.CodeNotResident, false},
	} {
		for _, d := range []struct{ daemon, url string }{{"vmserve", shardSrv.URL}, {"vmgate", gateSrv.URL}} {
			req, err := http.NewRequest(row.method, d.url+row.path, strings.NewReader(row.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(obs.RequestIDHeader, "parity")
			before := shardHits.Load()
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s via %s: %v", row.name, d.daemon, err)
			}
			status := resp.StatusCode
			if status < 400 {
				resp.Body.Close()
				t.Errorf("%s via %s: status %d, want %d %s", row.name, d.daemon, status, row.status, row.code)
				continue
			}
			env := decodeEnvelope(t, resp)
			if status != row.status || env.Code != row.code {
				t.Errorf("%s via %s: %d %q (%s), want %d %q", row.name, d.daemon, status, env.Code, env.Message, row.status, row.code)
			}
			if env.RequestID != "parity" {
				t.Errorf("%s via %s: envelope request id %q, want the caller's", row.name, d.daemon, env.RequestID)
			}
			if d.daemon == "vmgate" && row.atGate && shardHits.Load() != before {
				t.Errorf("%s: the gate fanned out a request it should have refused itself", row.name)
			}
		}
	}

	// Over the cap by its header alone: an admit that announces one byte
	// too many and sends none of them is refused on the announcement, by
	// both daemons alike. Nothing would answer a daemon that waited for
	// the body, so the deadline is the failure.
	for _, d := range []struct{ daemon, url string }{{"vmserve", shardSrv.URL}, {"vmgate", gateSrv.URL}} {
		conn, err := net.Dial("tcp", strings.TrimPrefix(d.url, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a TCP conn takes deadlines
		before := shardHits.Load()
		fmt.Fprintf(conn, "POST /v1/vms HTTP/1.1\r\nHost: parity\r\n%s: parity\r\nContent-Length: %d\r\n\r\n",
			obs.RequestIDHeader, api.MaxBodyBytes+1)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("admit over the cap by header via %s: %v", d.daemon, err)
		}
		status := resp.StatusCode
		if env := decodeEnvelope(t, resp); status != 413 || env.Code != api.CodeBadRequest || env.RequestID != "parity" {
			t.Errorf("admit over the cap by header via %s: %d %+v, want 413 %s", d.daemon, status, env, api.CodeBadRequest)
		}
		if d.daemon == "vmgate" && shardHits.Load() != before {
			t.Error("admit over the cap by header: the gate fanned out a request it should have refused itself")
		}
	}
}
