package main

import (
	"bytes"
	"context"
	"encoding/json"
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
	"vmalloc/internal/shard"
)

// newShard boots an in-process vmserve shard and returns its base URL.
func newShard(t *testing.T, firstServerID int) string {
	t.Helper()
	servers := make([]model.Server, 8)
	for i := range servers {
		servers[i] = model.Server{
			ID:             firstServerID + i,
			Capacity:       model.Resources{CPU: 10, Mem: 16},
			PIdle:          100,
			PPeak:          200,
			TransitionTime: 1,
		}
	}
	c, err := cluster.Open(cluster.Config{Servers: servers, IdleTimeout: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(clusterhttp.New(c, nil))
	t.Cleanup(srv.Close)
	return srv.URL
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

// writeTopology writes a topology.json over the given name=url pairs
// and returns its path.
func writeTopology(t *testing.T, shards ...string) string {
	t.Helper()
	topo := api.Topology{Epoch: 1}
	for _, s := range shards {
		name, url, _ := strings.Cut(s, "=")
		topo.Shards = append(topo.Shards, api.TopologyShard{Name: name, URL: url})
	}
	b, err := json.Marshal(topo)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "topology.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

var routingAddr = regexp.MustCompile(`msg=routing .*addr=(\S+)`)

// waitRouting polls the gate's log for the bound address (the gate
// resolves :0 ports before announcing) and then polls /healthz until it
// answers — readiness by observation, not by sleeping.
func waitRouting(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var addr string
	for addr == "" {
		if m := routingAddr.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gate never announced its address; output:\n%s", out.String())
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
			t.Fatalf("gate at %s never became healthy (last err %v)", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunStartupShutdown boots the real gate daemon on an ephemeral port
// over two live shards, routes admissions through it, checks the VM
// landed on the shard its ID hashes to, and shuts the gate down via
// context cancellation, the signal path's plumbing.
func TestRunStartupShutdown(t *testing.T) {
	shards := map[string]string{
		"a": newShard(t, 100),
		"b": newShard(t, 200),
	}
	m, err := shard.NewMap([]shard.Shard{
		{Name: "a", Addr: shards["a"]},
		{Name: "b", Addr: shards["b"]},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	out := new(syncBuffer)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-topology", writeTopology(t, "a="+shards["a"], "b="+shards["b"]),
		}, out)
	}()
	base := waitRouting(t, out)

	// Admit two VMs, one per shard's key range.
	idFor := func(name string) int {
		for id := 1; ; id++ {
			if m.Assign(id).Name == name {
				return id
			}
		}
	}
	for _, name := range []string{"a", "b"} {
		id := idFor(name)
		body := fmt.Sprintf(`[{"id":%d,"demand":{"cpu":1,"mem":1},"durationMinutes":5}]`, id)
		resp, err := http.Post(base+"/v1/vms", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admit via gate = %d %s", resp.StatusCode, data)
		}
		var adms []api.AdmitResponse
		if err := json.Unmarshal(data, &adms); err != nil {
			t.Fatal(err)
		}
		if len(adms) != 1 || !adms[0].Accepted {
			t.Fatalf("admit outcome %+v", adms)
		}
		// The VM is resident on exactly the shard its ID hashes to.
		for shardName, shardURL := range shards {
			sresp, err := http.Get(shardURL + "/v1/state")
			if err != nil {
				t.Fatal(err)
			}
			sdata, _ := io.ReadAll(sresp.Body)
			sresp.Body.Close()
			var st api.StateResponse
			if err := json.Unmarshal(sdata, &st); err != nil {
				t.Fatal(err)
			}
			resident := false
			for _, p := range st.VMs {
				if p.VM.ID == id {
					resident = true
				}
			}
			if want := shardName == name; resident != want {
				t.Errorf("vm %d resident on shard %s = %v, want %v", id, shardName, resident, want)
			}
		}
	}

	// The aggregated state sees both VMs.
	resp, err := http.Get(base + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var gs api.GateStateResponse
	if err := json.Unmarshal(data, &gs); err != nil {
		t.Fatal(err)
	}
	if gs.Residents != 2 || len(gs.Shards) != 2 {
		t.Fatalf("gate state %+v", gs)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v (output: %s)", err, out.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gate did not shut down")
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

// TestRunBadFlags: a gate without shards, or with malformed targets, is
// a startup error, not a mute daemon.
func TestRunBadFlags(t *testing.T) {
	if err := run(context.Background(), nil, io.Discard); err == nil {
		t.Error("no shards should error")
	}
	if err := run(context.Background(), []string{"-topology", writeTopology(t, "a=http://x", "a=http://y")}, io.Discard); err == nil {
		t.Error("duplicate shard names should error")
	}
	if err := run(context.Background(), []string{"-topology", writeTopology(t, "a=http://x"), "-log-level", "nope"}, io.Discard); err == nil {
		t.Error("bad log level should error")
	}
	if err := run(context.Background(), []string{"-shard", "a=http://x"}, io.Discard); err == nil {
		t.Error("the retired -shard flag should be rejected")
	}
	// The probe cadence and the proxy timeout are constants.
	for _, args := range [][]string{{"-probe-interval", "2s"}, {"-timeout", "5s"}} {
		err := run(context.Background(), append(args, "-topology", writeTopology(t, "a=http://x")), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: error %v, want an undefined flag", args, err)
		}
	}
}
