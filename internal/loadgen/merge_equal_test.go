package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/arena"
	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/model"
	"vmalloc/internal/online"
	"vmalloc/internal/shard"
)

// mergeTwin is a two-shard deployment (each shard with one shadow
// challenger and a migration cost, so every merged surface has content)
// plus a gate over it.
type mergeTwin struct {
	m       *shard.Map
	gateURL string
}

func newMergeTwin(t *testing.T) mergeTwin {
	t.Helper()
	var shards []shard.Shard
	for i, name := range []string{"s0", "s1"} {
		servers := testServers(6)
		for j := range servers {
			servers[j].ID = 1000*(i+1) + j
		}
		ar := arena.New(arena.Config{Servers: servers, IdleTimeout: 5, QueueSize: 1 << 12})
		if err := ar.Register("ffps", online.NewFirstFitPolicy(7)); err != nil {
			t.Fatal(err)
		}
		ar.Start()
		t.Cleanup(ar.Close)
		cl, err := cluster.Open(cluster.Config{Servers: servers, IdleTimeout: 5, MigrationCostPerGB: 0.1, Arena: ar})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		srv := httptest.NewServer(clusterhttp.New(cl, clusterhttp.Config{}))
		t.Cleanup(srv.Close)
		shards = append(shards, shard.Shard{Name: name, Addr: srv.URL})
	}
	m, err := shard.NewMap(shards)
	if err != nil {
		t.Fatal(err)
	}
	gateSrv := httptest.NewServer(shard.NewGate(m, shard.Config{}).Handler())
	t.Cleanup(gateSrv.Close)
	return mergeTwin{m: m, gateURL: gateSrv.URL}
}

// fragment drives a deployment, through the given front, into a state a
// consolidation pass has work in: a wave of long VMs fills several
// servers per shard, then three in four are released, leaving every
// server thinly used.
func fragment(t *testing.T, front API) {
	t.Helper()
	ctx := context.Background()
	var reqs []api.AdmitRequest
	for id := 1; id <= 96; id++ {
		reqs = append(reqs, api.AdmitRequest{ID: id, Demand: model.Resources{CPU: 1, Mem: 1}, Start: 1, DurationMinutes: 400})
	}
	adms, err := front.Admit(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range adms {
		if !a.Accepted {
			t.Fatalf("setup admission refused: %+v", a)
		}
	}
	if _, err := front.AdvanceClock(ctx, 10); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 96; id++ {
		if id%4 == 0 {
			continue
		}
		if _, err := front.Release(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
}

// gateBody fetches one gate endpoint's raw response body.
func gateBody(t *testing.T, method, url, body string) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s → %d %s (err %v)", method, url, resp.StatusCode, b, err)
	}
	return b
}

// gateJSON renders v the way the gate writes a JSON body.
func gateJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGateAndMultiClientMergeByteEqual: the two routing fronts share one
// merge core, so over the same shards they must serve byte-identical
// merged bodies. Consolidation mutates, so it is compared across twin
// deployments driven identically — one through its gate, one through a
// MultiClient — and the read-only merges (migration history, with and
// without a limit, and the arena scoreboard) on one deployment read
// through both fronts.
func TestGateAndMultiClientMergeByteEqual(t *testing.T) {
	ctx := context.Background()
	viaGate, viaMulti := newMergeTwin(t), newMergeTwin(t)
	fragment(t, NewClient(viaGate.gateURL))
	mc := NewMultiClient(viaMulti.m, nil)
	fragment(t, mc)

	gotGate := gateBody(t, http.MethodPost, viaGate.gateURL+"/v1/consolidate", `{"policy":"min-utilization"}`)
	cr, err := mc.Consolidate(ctx, api.ConsolidateRequest{Policy: api.PolicyMinUtilization})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Executed == 0 || len(cr.Moves) < 2 {
		t.Fatalf("setup produced no consolidation work to merge: %+v", cr)
	}
	stamped := map[string]bool{}
	for _, mv := range cr.Moves {
		stamped[mv.Shard] = true
	}
	if len(stamped) != 2 {
		t.Fatalf("moves came from shards %v, want both so the merge order is exercised", stamped)
	}
	// The twins' shard URLs differ, but no merged body carries one.
	if gotMulti := gateJSON(t, cr); !bytes.Equal(gotGate, gotMulti) {
		t.Fatalf("consolidate bodies differ:\n--- gate\n%s\n--- multi-client\n%s", gotGate, gotMulti)
	}

	// Read-only merges: one deployment, both fronts.
	both := NewMultiClient(viaGate.m, nil)
	for _, query := range []string{"", "limit=3", "vm=8"} {
		url := viaGate.gateURL + "/v1/migrations"
		if query != "" {
			url += "?" + query
		}
		mr, err := both.Migrations(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		if query == "limit=3" && len(mr.Migrations) != 3 {
			t.Fatalf("limit=3 kept %d records", len(mr.Migrations))
		}
		if a, b := gateBody(t, http.MethodGet, url, ""), gateJSON(t, mr); !bytes.Equal(a, b) {
			t.Fatalf("migrations?%s bodies differ:\n--- gate\n%s\n--- multi-client\n%s", query, a, b)
		}
	}

	// The arena scores asynchronously. Read the scoreboard through the
	// MultiClient on both sides of the gate's read: once every admission
	// is judged and the two outer reads agree, nothing moved in between,
	// and the gate's body must equal them.
	deadline := time.Now().Add(10 * time.Second)
	for {
		before, err := both.Policies(ctx)
		if err != nil {
			t.Fatal(err)
		}
		body := gateBody(t, http.MethodGet, viaGate.gateURL+"/v1/policies", "")
		after, err := both.Policies(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var judged uint64
		for _, p := range after.Policies {
			judged += p.Decisions
		}
		if b := gateJSON(t, before); after.Count == 2 && judged == 96 && bytes.Equal(b, gateJSON(t, after)) {
			if !bytes.Equal(body, b) {
				t.Fatalf("policies bodies differ:\n--- gate\n%s\n--- multi-client\n%s", body, b)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("arena never settled: %+v", after)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
