package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
	"vmalloc/internal/online"
	"vmalloc/internal/workload"
)

// crash abandons the cluster without the final snapshot — the test hook
// simulating a process kill mid-flight.
func (c *Cluster) crash() {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.closed = true
		if c.jr != nil {
			c.jr.f.Close()
		}
	})
}

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

func mustOpen(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustAdmit(t *testing.T, c *Cluster, reqs ...api.AdmitRequest) []api.AdmitResponse {
	t.Helper()
	adms, err := c.Admit(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range adms {
		if !a.Accepted {
			t.Fatalf("vm %d rejected: %s", a.ID, a.Reason)
		}
	}
	return adms
}

// TestClusterMatchesReplayEngine: driving the same workload through the
// cluster, one request per call in arrival order, reproduces the replay
// engine's placements, starts and energy exactly.
func TestClusterMatchesReplayEngine(t *testing.T) {
	inst, err := workload.Generate(
		workload.Spec{NumVMs: 80, MeanInterArrival: 3, MeanLength: 50},
		workload.FleetSpec{NumServers: 30, TransitionTime: 2},
		3,
	)
	if err != nil {
		t.Fatal(err)
	}
	eng := online.Engine{Policy: &online.MinCostPolicy{}, IdleTimeout: 5}
	rep, err := eng.Run(inst)
	if err != nil {
		t.Fatal(err)
	}

	c := mustOpen(t, Config{Servers: inst.Servers, IdleTimeout: 5})
	defer c.Close()
	for _, v := range online.ArrivalOrder(inst.VMs) {
		adms := mustAdmit(t, c, api.AdmitRequest{
			ID:              v.ID,
			Demand:          v.Demand,
			Start:           v.Start,
			DurationMinutes: v.Duration(),
		})
		if adms[0].Server != rep.Placement[v.ID] {
			t.Fatalf("vm %d placed on server %d, engine chose %d", v.ID, adms[0].Server, rep.Placement[v.ID])
		}
		if adms[0].Start != rep.Starts[v.ID] {
			t.Fatalf("vm %d starts at %d, engine at %d", v.ID, adms[0].Start, rep.Starts[v.ID])
		}
	}
	if err := c.AdvanceTo(1 << 20); err != nil {
		t.Fatal(err)
	}
	st := c.State()
	if st.Energy != rep.Energy {
		t.Errorf("energy diverged: cluster %+v, engine %+v", st.Energy, rep.Energy)
	}
	if st.Transitions != rep.Transitions {
		t.Errorf("transitions: cluster %d, engine %d", st.Transitions, rep.Transitions)
	}
	if st.ServersUsed != rep.ServersUsed {
		t.Errorf("servers used: cluster %d, engine %d", st.ServersUsed, rep.ServersUsed)
	}
	if len(st.VMs) != 0 {
		t.Errorf("%d residents after every departure", len(st.VMs))
	}
}

// TestClusterBatchDeterminism: a whole batch admitted in one call places
// identically to sequential admission in (start, ID) order.
func TestClusterBatchDeterminism(t *testing.T) {
	inst, err := workload.Generate(
		workload.Spec{NumVMs: 40, MeanInterArrival: 2, MeanLength: 60},
		workload.FleetSpec{NumServers: 64, TransitionTime: 1},
		17,
	)
	if err != nil {
		t.Fatal(err)
	}
	vms := online.ArrivalOrder(inst.VMs)
	sort.SliceStable(vms, func(a, b int) bool {
		if vms[a].Start != vms[b].Start {
			return vms[a].Start < vms[b].Start
		}
		return vms[a].ID < vms[b].ID
	})
	reqs := make([]api.AdmitRequest, len(vms))
	for i, v := range vms {
		reqs[i] = api.AdmitRequest{ID: v.ID, Demand: v.Demand, Start: v.Start, DurationMinutes: v.Duration()}
	}

	batched := mustOpen(t, Config{Servers: inst.Servers, IdleTimeout: 3})
	defer batched.Close()
	batchAdms := mustAdmit(t, batched, reqs...)

	seq := mustOpen(t, Config{Servers: inst.Servers, IdleTimeout: 3})
	defer seq.Close()
	for i, req := range reqs {
		adm := mustAdmit(t, seq, req)[0]
		if adm != batchAdms[i] {
			t.Fatalf("vm %d: batched %+v, sequential %+v", req.ID, batchAdms[i], adm)
		}
	}
}

// TestClusterGracefulRejection: overload is a structured rejection, not
// an error, and the cluster keeps serving afterwards.
func TestClusterGracefulRejection(t *testing.T) {
	c := mustOpen(t, Config{Servers: testServers(1), IdleTimeout: 0})
	defer c.Close()
	ctx := context.Background()

	adms, err := c.Admit(ctx, []api.AdmitRequest{
		{Demand: model.Resources{CPU: 99, Mem: 1}, DurationMinutes: 10}, // larger than any server
		{Demand: model.Resources{CPU: 8, Mem: 8}, DurationMinutes: 10},  // fits
		{Demand: model.Resources{CPU: 8, Mem: 8}, DurationMinutes: 10},  // no room left
		{Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 0},   // invalid duration
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, false, false}
	for i, adm := range adms {
		if adm.Accepted != want[i] {
			t.Errorf("request %d: accepted=%v (%s), want %v", i, adm.Accepted, adm.Reason, want[i])
		}
		if !adm.Accepted && adm.Reason == "" {
			t.Errorf("request %d: rejection without reason", i)
		}
	}
	// Still serving: a small VM fits next to the big one.
	mustAdmit(t, c, api.AdmitRequest{Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 5})

	if _, err := c.Release(context.Background(), 999); !errors.As(err, new(*NotResidentError)) {
		t.Errorf("Release(999) = %v, want NotResidentError", err)
	}
}

// testOp is one deterministic mutation for the durability tests.
type testOp struct {
	admit   *api.AdmitRequest
	release int
	advance int
}

func applyOps(t *testing.T, c *Cluster, ops []testOp) {
	t.Helper()
	for _, op := range ops {
		switch {
		case op.admit != nil:
			mustAdmit(t, c, *op.admit)
		case op.release > 0:
			if _, err := c.Release(context.Background(), op.release); err != nil {
				t.Fatal(err)
			}
		default:
			if err := c.AdvanceTo(op.advance); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func durabilityOps() []testOp {
	req := func(id, start, dur int, cpu float64) *api.AdmitRequest {
		return &api.AdmitRequest{ID: id, Demand: model.Resources{CPU: cpu, Mem: cpu}, Start: start, DurationMinutes: dur}
	}
	return []testOp{
		{admit: req(1, 1, 60, 4)},
		{admit: req(2, 1, 90, 6)},
		{admit: req(3, 4, 30, 8)},
		{advance: 10},
		{release: 2},
		{admit: req(4, 12, 45, 5)},
		{advance: 20},
		{admit: req(5, 20, 200, 3)},
		{release: 1},
		{admit: req(6, 25, 10, 2)},
	}
}

func stateJSON(t *testing.T, c *Cluster) []byte {
	t.Helper()
	b, err := c.StateJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClusterCrashRecovery: a crash that tears the last journal record
// recovers to exactly the state of a cluster that never performed the
// torn mutation.
func TestClusterCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	servers := testServers(6)
	cfg := Config{Servers: servers, IdleTimeout: 2, Dir: dir, SnapshotEvery: -1}
	ops := durabilityOps()

	c := mustOpen(t, cfg)
	applyOps(t, c, ops)
	c.crash()

	// Tear the final record: chop bytes off the journal mid-line.
	path := filepath.Join(dir, journalName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	// Reference: a volatile cluster that performed every op but the last.
	ref := mustOpen(t, Config{Servers: servers, IdleTimeout: 2})
	defer ref.Close()
	applyOps(t, ref, ops[:len(ops)-1])

	restored := mustOpen(t, cfg)
	defer restored.Close()
	got, want := stateJSON(t, restored), stateJSON(t, ref)
	if !bytes.Equal(got, want) {
		t.Errorf("restored state diverged from the never-crashed reference:\n--- restored\n%s\n--- reference\n%s", got, want)
	}

	// The restored cluster keeps journaling: apply the lost op again and
	// survive another crash/reopen cycle.
	applyOps(t, restored, ops[len(ops)-1:])
	want = stateJSON(t, restored)
	restored.crash()
	again := mustOpen(t, cfg)
	defer again.Close()
	if got := stateJSON(t, again); !bytes.Equal(got, want) {
		t.Errorf("second recovery diverged:\n--- restored\n%s\n--- want\n%s", got, want)
	}
}

// TestClusterJournalFailureSticky: the first journal write failure
// freezes the cluster — subsequent mutations return ErrJournalBroken and
// never apply, so the log never grows past the hole and a restart
// recovers exactly the journaled prefix.
func TestClusterJournalFailureSticky(t *testing.T) {
	dir := t.TempDir()
	servers := testServers(4)
	cfg := Config{Servers: servers, IdleTimeout: 2, Dir: dir, SnapshotEvery: -1}
	req := func(id int) api.AdmitRequest {
		return api.AdmitRequest{ID: id, Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 30}
	}
	c := mustOpen(t, cfg)
	mustAdmit(t, c, req(1), req(2), req(3))

	// Break the journal out from under the cluster: every append fails.
	c.mu.Lock()
	c.jr.f.Close()
	c.mu.Unlock()

	ctx := context.Background()
	adms, err := c.Admit(ctx, []api.AdmitRequest{req(4)})
	if !errors.Is(err, ErrJournalBroken) {
		t.Fatalf("admit after break: err = %v, want ErrJournalBroken", err)
	}
	// The admission that hit the failure took effect in memory and is
	// reported alongside the error.
	if len(adms) != 1 || !adms[0].Accepted {
		t.Fatalf("breaking admission outcome %+v", adms)
	}
	// From here on nothing mutates: no admissions, releases or ticks.
	if adms, err = c.Admit(ctx, []api.AdmitRequest{req(5)}); !errors.Is(err, ErrJournalBroken) {
		t.Fatalf("second admit: err = %v (adms %+v), want ErrJournalBroken", err, adms)
	}
	if _, err := c.Release(context.Background(), 1); !errors.Is(err, ErrJournalBroken) {
		t.Fatalf("release: err = %v, want ErrJournalBroken", err)
	}
	if err := c.AdvanceTo(1000); !errors.Is(err, ErrJournalBroken) {
		t.Fatalf("advance: err = %v, want ErrJournalBroken", err)
	}
	c.mu.Lock()
	_, ok5 := c.fleet.Resident(5)
	_, ok1 := c.fleet.Resident(1)
	now := c.fleet.Now()
	c.mu.Unlock()
	if ok5 {
		t.Error("vm 5 was admitted past a broken journal")
	}
	if !ok1 {
		t.Error("vm 1 was released past a broken journal")
	}
	if now >= 1000 {
		t.Error("clock advanced past a broken journal")
	}
	c.crash()

	// The restart sees the journaled prefix: VMs 1–3, no trace of 4.
	restored := mustOpen(t, cfg)
	defer restored.Close()
	ref := mustOpen(t, Config{Servers: servers, IdleTimeout: 2})
	defer ref.Close()
	mustAdmit(t, ref, req(1), req(2), req(3))
	if got, want := stateJSON(t, restored), stateJSON(t, ref); !bytes.Equal(got, want) {
		t.Errorf("restored state diverged from the journaled prefix:\n--- restored\n%s\n--- reference\n%s", got, want)
	}
}

// TestClusterJournalHeal: a successful snapshot clears the sticky journal
// failure — it captures the complete in-memory state, so nothing depends
// on the records the journal failed to take — and mutation resumes.
func TestClusterJournalHeal(t *testing.T) {
	c := mustOpen(t, Config{Servers: testServers(4), IdleTimeout: 2, Dir: t.TempDir(), SnapshotEvery: -1})
	defer c.Close()
	small := api.AdmitRequest{Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 30}
	mustAdmit(t, c, small)
	c.mu.Lock()
	c.jfail = ErrJournalBroken // simulate a recorded write failure
	c.mu.Unlock()
	if _, err := c.Admit(context.Background(), []api.AdmitRequest{small}); !errors.Is(err, ErrJournalBroken) {
		t.Fatalf("admit while broken: err = %v, want ErrJournalBroken", err)
	}
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mustAdmit(t, c, small)
}

// TestClusterSnapshotCompaction: automatic snapshots compact the journal,
// and a graceful restart serves a byte-identical state.
func TestClusterSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Servers: testServers(6), IdleTimeout: 2, Dir: dir, SnapshotEvery: 4}

	c := mustOpen(t, cfg)
	applyOps(t, c, durabilityOps())
	want := stateJSON(t, c)

	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("no snapshot after %d mutations: %v", len(durabilityOps()), err)
	}
	recs, _, err := readRecords(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) >= len(durabilityOps()) {
		t.Errorf("journal holds %d records after compaction, want < %d", len(recs), len(durabilityOps()))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Close snapshots, so the journal must be empty now.
	recs, _, err = readRecords(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("journal holds %d records after Close, want 0", len(recs))
	}

	c2 := mustOpen(t, cfg)
	defer c2.Close()
	if got := stateJSON(t, c2); !bytes.Equal(got, want) {
		t.Errorf("state after graceful restart diverged:\n--- got\n%s\n--- want\n%s", got, want)
	}
	// Auto-assigned IDs continue after the highest durable ID.
	adm := mustAdmit(t, c2, api.AdmitRequest{Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 5})[0]
	if adm.ID != 7 {
		t.Errorf("next auto ID = %d, want 7", adm.ID)
	}
}

// TestClusterConcurrentAdmissions: ≥1k concurrent admissions batch up
// without races, every request gets exactly one outcome, and the journal
// replays the result byte-identically.
func TestClusterConcurrentAdmissions(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Servers:     testServers(32),
		IdleTimeout: -1,
		Dir:         dir,
	}
	c := mustOpen(t, cfg)

	const n = 1200
	var wg sync.WaitGroup
	var accepted, rejected, failed atomic.Int64
	ids := make(chan int, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			adms, err := c.Admit(context.Background(), []api.AdmitRequest{
				{Demand: model.Resources{CPU: 0.1, Mem: 0.1}, DurationMinutes: 1000},
			})
			switch {
			case err != nil:
				failed.Add(1)
			case adms[0].Accepted:
				accepted.Add(1)
				ids <- adms[0].ID
			default:
				rejected.Add(1)
			}
		}()
	}
	// Hammer the read paths concurrently.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.State()
					if err := c.WriteMetrics(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	close(ids)

	if failed.Load() != 0 {
		t.Fatalf("%d Admit calls errored", failed.Load())
	}
	if got := accepted.Load() + rejected.Load(); got != n {
		t.Fatalf("%d outcomes for %d requests", got, n)
	}
	// 32 servers × 10 CPU handles 1200 × 0.1 with room to spare.
	if rejected.Load() != 0 {
		t.Errorf("%d rejections on an under-committed fleet", rejected.Load())
	}
	seen := make(map[int]bool, n)
	for id := range ids {
		if seen[id] {
			t.Fatalf("vm id %d assigned twice", id)
		}
		seen[id] = true
	}
	st := c.State()
	if st.Admitted != int(accepted.Load()) || len(st.VMs) != int(accepted.Load()) {
		t.Errorf("state shows %d admitted / %d resident, want %d", st.Admitted, len(st.VMs), accepted.Load())
	}

	// Release half concurrently, then prove the whole history replays.
	var rel sync.WaitGroup
	i := 0
	for id := range seen {
		if i++; i%2 == 0 {
			continue
		}
		rel.Add(1)
		go func(id int) {
			defer rel.Done()
			if _, err := c.Release(context.Background(), id); err != nil {
				t.Error(err)
			}
		}(id)
	}
	rel.Wait()

	want := stateJSON(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	restored := mustOpen(t, cfg)
	defer restored.Close()
	if got := stateJSON(t, restored); !bytes.Equal(got, want) {
		t.Error("state after restart diverged from pre-shutdown state")
	}
}

// TestClusterClosed: mutations after Close fail with ErrClosed.
func TestClusterClosed(t *testing.T) {
	c := mustOpen(t, Config{Servers: testServers(2)})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit(context.Background(), []api.AdmitRequest{{Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 1}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Admit after Close = %v, want ErrClosed", err)
	}
	if _, err := c.Release(context.Background(), 1); !errors.Is(err, ErrClosed) {
		t.Errorf("Release after Close = %v, want ErrClosed", err)
	}
	if err := c.AdvanceTo(10); !errors.Is(err, ErrClosed) {
		t.Errorf("AdvanceTo after Close = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

// TestStageHistogramsOnMetrics: the queue-wait and fsync stage durations
// — already recorded per decision on the flight recorder — are also
// exported as cumulative /metrics histogram families, observed once per
// Admit call (queue wait) and once per journal fsync.
func TestStageHistogramsOnMetrics(t *testing.T) {
	c := mustOpen(t, Config{Servers: testServers(4), Dir: t.TempDir()})
	defer c.Close()
	ctx := context.Background()
	mustAdmit(t, c, api.AdmitRequest{ID: 1, Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 10})
	mustAdmit(t, c, api.AdmitRequest{ID: 2, Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 10})
	if _, err := c.Release(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := c.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Two Admit calls waited in the queue; two batch fsyncs plus the
	// release's and the tick's own fsyncs ran; one of the two VMs is still
	// resident.
	for _, want := range []string{
		"vmalloc_cluster_resident_vms 1",
		"vmalloc_cluster_queue_wait_seconds_count 2",
		"vmalloc_cluster_fsync_seconds_count 4",
		"# TYPE vmalloc_cluster_queue_wait_seconds histogram",
		"# TYPE vmalloc_cluster_fsync_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// A volatile cluster never syncs: the family is present, empty.
	v := mustOpen(t, Config{Servers: testServers(2)})
	defer v.Close()
	mustAdmit(t, v, api.AdmitRequest{ID: 1, Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 10})
	buf.Reset()
	if err := v.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "vmalloc_cluster_fsync_seconds_count 0") {
		t.Error("volatile cluster should export an empty fsync histogram")
	}
}
