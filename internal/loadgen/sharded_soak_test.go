package loadgen

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/shard"
	"vmalloc/internal/workload"
)

// shardedDeployment is two real vmserve shards behind one real vmgate,
// all in process, for the sharded soak tests.
type shardedDeployment struct {
	m        *shard.Map
	gate     *shard.Gate
	gateSrv  *httptest.Server
	shardSrv map[string]*httptest.Server
}

func newShardedDeployment(t *testing.T, serversPerShard int) *shardedDeployment {
	t.Helper()
	d := &shardedDeployment{shardSrv: make(map[string]*httptest.Server, 2)}
	var shards []shard.Shard
	for i, name := range []string{"s0", "s1"} {
		servers := testServers(serversPerShard)
		for j := range servers {
			servers[j].ID = 1000*(i+1) + j // distinct server IDs per shard
		}
		cl, err := cluster.Open(cluster.Config{
			Servers:     servers,
			IdleTimeout: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		srv := httptest.NewServer(clusterhttp.New(cl, nil))
		t.Cleanup(srv.Close)
		d.shardSrv[name] = srv
		shards = append(shards, shard.Shard{Name: name, Addr: srv.URL})
	}
	m, err := shard.NewMap(shards)
	if err != nil {
		t.Fatal(err)
	}
	d.m = m
	d.gate = shard.NewGate(m, shard.Config{})
	d.gateSrv = httptest.NewServer(d.gate.Handler())
	t.Cleanup(d.gateSrv.Close)
	return d
}

// verifyResidency checks that every VM resident anywhere in the
// deployment sits on exactly the shard its ID hashes to, and returns
// the total resident count and the per-shard digests.
func (d *shardedDeployment) verifyResidency(t *testing.T) (int, map[string]string) {
	t.Helper()
	total := 0
	digests := make(map[string]string, len(d.shardSrv))
	for name, srv := range d.shardSrv {
		st, digest, err := state[api.StateResponse](context.Background(), NewClient(srv.URL))
		if err != nil {
			t.Fatalf("state of shard %s: %v", name, err)
		}
		digests[name] = digest
		total += len(st.VMs)
		for _, p := range st.VMs {
			if owner := d.m.Assign(p.VM.ID).Name; owner != name {
				t.Errorf("vm %d resident on shard %s but hashes to %s", p.VM.ID, name, owner)
			}
		}
	}
	return total, digests
}

func shardedSoakSpec() ScheduleSpec {
	spec := ScheduleSpec{
		Arrivals: workload.DiurnalSpec{
			NumVMs: 800, MeanInterArrival: 0.4, MeanLength: 30, PeakToTrough: 3, Period: 300,
		},
		ReleaseFraction: 0.4,
		Seed:            20260805,
	}
	if testing.Short() {
		spec.Arrivals.NumVMs = 200
	}
	return spec
}

// TestShardedSoakThroughGate replays a full seeded schedule through a
// vmgate fronting two shards, with chunked concurrent admissions (run
// under -race). Afterwards: zero failed operations, every resident VM
// on the shard its ID hashes to, and the gate's aggregated digest equal
// to the combination of the digests the shards themselves serve.
func TestShardedSoakThroughGate(t *testing.T) {
	d := newShardedDeployment(t, 24)
	sched, err := BuildSchedule(shardedSoakSpec())
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(d.gateSrv.URL)
	r := &Runner{Client: client, Schedule: sched,
		Opts: Options{Workers: 16, Chunk: 8, ConsolidateEvery: 30, ConsolidatePolicy: api.PolicyMinUtilization}}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("sharded soak reported %d errors", rep.Errors)
	}
	if rep.Sent != sched.NumVMs {
		t.Fatalf("sent %d admissions, want %d", rep.Sent, sched.NumVMs)
	}
	t.Logf("gate soak: %d ops, %d accepted, %d rejected, %d released, %d migrated in %s",
		sched.Ops(), rep.Accepted, rep.Rejected, rep.Releases, rep.Migrations, rep.Wall.Round(time.Millisecond))
	if rep.Consolidations == 0 {
		t.Fatal("gate soak ran no consolidation passes")
	}
	// The text report's server-counter rows survive the gate's shard
	// labels (they used to print a header and nothing under it).
	if text := rep.String(); !strings.Contains(text, "  vmalloc_cluster_admissions_total") {
		t.Errorf("gate-fronted report has no admissions row:\n%s", text)
	}

	// The gate's merged migration history reconciles with the runner's
	// count, every record stamped with a shard that really owns its VM.
	hist, err := get[api.MigrationsResponse](context.Background(), client, "/v1/migrations", "")
	if err != nil {
		t.Fatal(err)
	}
	if hist.Count != rep.Migrations {
		t.Errorf("gate history holds %d migrations, report executed %d", hist.Count, rep.Migrations)
	}
	for _, m := range hist.Migrations {
		if owner := d.m.Assign(m.VM).Name; m.Shard != owner {
			t.Errorf("migration %+v stamped %s, vm hashes to %s", m, m.Shard, owner)
		}
	}

	residents, digests := d.verifyResidency(t)
	if residents != rep.FinalResidents {
		t.Errorf("shards hold %d residents, gate reported %d", residents, rep.FinalResidents)
	}
	if want := shard.CombineDigests(digests); rep.StateDigest != want {
		t.Errorf("gate digest %s != combined per-shard digests %s", rep.StateDigest, want)
	}

	// The gate's full aggregated state agrees with the per-shard truth.
	gs, hdrDigest, err := state[api.GateStateResponse](context.Background(), client)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Digest != hdrDigest || gs.Digest != rep.StateDigest {
		t.Errorf("digest mismatch: body %s header %s report %s", gs.Digest, hdrDigest, rep.StateDigest)
	}
	if gs.Admitted != rep.Accepted {
		t.Errorf("gate admitted %d, report accepted %d", gs.Admitted, rep.Accepted)
	}
	for _, ss := range gs.Shards {
		if digests[ss.Shard] != ss.Digest {
			t.Errorf("shard %s digest drifted between scrapes", ss.Shard)
		}
	}
}

// TestShardedSoakInProcessGate replays the same schedule through a
// shard.Gate called in process (NewHandlerClient) — what vmload builds
// for repeated -addr flags, no gate hop on the wire — and demands the
// same invariants, plus digest agreement with the network gate observing
// the same deployment: routing is a property of the shard map, not of
// which process evaluates it.
func TestShardedSoakInProcessGate(t *testing.T) {
	d := newShardedDeployment(t, 24)
	sched, err := BuildSchedule(shardedSoakSpec())
	if err != nil {
		t.Fatal(err)
	}
	gate := shard.NewGate(d.m, shard.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go gate.Run(ctx)
	client := NewHandlerClient(gate.Handler())
	if err := client.WaitReady(ctx, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	r := &Runner{Client: client, Schedule: sched,
		Opts: Options{Workers: 16, Chunk: 8, ConsolidateEvery: 30, ConsolidatePolicy: api.PolicyMinUtilization}}
	rep, err := r.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("in-process gate soak reported %d errors", rep.Errors)
	}

	residents, digests := d.verifyResidency(t)
	if residents != rep.FinalResidents {
		t.Errorf("shards hold %d residents, report says %d", residents, rep.FinalResidents)
	}
	if want := shard.CombineDigests(digests); rep.StateDigest != want {
		t.Errorf("in-process gate digest %s != combined per-shard digests %s", rep.StateDigest, want)
	}
	// A network gate over the same live deployment serves the same digest.
	_, gateDigest, err := state[api.GateStateResponse](ctx, NewClient(d.gateSrv.URL))
	if err != nil {
		t.Fatal(err)
	}
	if gateDigest != rep.StateDigest {
		t.Errorf("network gate sees digest %s, in-process gate reported %s", gateDigest, rep.StateDigest)
	}
	// The shard-label fold sums both shards' counters under the names a
	// single vmserve exports.
	met, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := met["vmalloc_cluster_admissions_total"]; got != float64(rep.Accepted) {
		t.Errorf("summed admissions %g, want %d", got, rep.Accepted)
	}
	if got := met["vmalloc_cluster_migrations_total"]; got != float64(rep.Migrations) {
		t.Errorf("summed migrations %g, want %d", got, rep.Migrations)
	}
}

// TestShardedFailoverScopedErrors kills one shard and verifies, through
// the typed client, that the gate degrades exactly the dead shard's key
// range: typed 503 shard_down envelopes for its IDs, normal service for
// the other shard's.
func TestShardedFailoverScopedErrors(t *testing.T) {
	d := newShardedDeployment(t, 4)
	d.shardSrv["s1"].Close()
	d.gate.CheckNow(context.Background())

	idFor := func(name string) int {
		for id := 1; ; id++ {
			if d.m.Assign(id).Name == name {
				return id
			}
		}
	}
	client := NewClient(d.gateSrv.URL)

	req := func(id int) []api.AdmitRequest {
		return []api.AdmitRequest{{ID: id, Demand: testServers(1)[0].Capacity, DurationMinutes: 10}}
	}
	_, err := client.Admit(context.Background(), req(idFor("s1")))
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("dead-shard admit error %v, want *api.Error", err)
	}
	if ae.Status != 503 || ae.Envelope.Code != api.CodeShardDown {
		t.Fatalf("dead-shard admit: status %d code %q, want 503 shard_down", ae.Status, ae.Envelope.Code)
	}

	adms, err := client.Admit(context.Background(), req(idFor("s0")))
	if err != nil {
		t.Fatalf("live-shard admit failed: %v (a dead shard must not take the live one with it)", err)
	}
	if len(adms) != 1 || !adms[0].Accepted {
		t.Fatalf("live-shard admit %+v", adms)
	}

	// Releases to the dead shard's range: same scoped typed failure.
	_, err = client.Release(context.Background(), idFor("s1"))
	if !errors.As(err, &ae) || ae.Envelope.Code != api.CodeShardDown {
		t.Fatalf("dead-shard release error %v, want shard_down envelope", err)
	}
}
