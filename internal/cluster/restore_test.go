package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
	"vmalloc/internal/online"
	"vmalloc/internal/workload"
)

// openEditedSnapshot snapshots a fleet with two residents, checks that
// the snapshot reopens as written, applies edit to its fleet state in
// snapshot.json and returns what Open makes of that.
func openEditedSnapshot(t *testing.T, edit func(*online.FleetSnapshot)) error {
	t.Helper()
	cfg := Config{Servers: testServers(4), IdleTimeout: 2, Dir: t.TempDir(), SnapshotEvery: -1, DisableFsync: true}
	c := mustOpen(t, cfg)
	mustAdmit(t, c,
		api.AdmitRequest{ID: 1, Demand: model.Resources{CPU: 2, Mem: 3}, Start: 1, DurationMinutes: 30},
		api.AdmitRequest{ID: 2, Demand: model.Resources{CPU: 1, Mem: 2}, Start: 1, DurationMinutes: 30})
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	c.crash()
	path := filepath.Join(cfg.Dir, snapshotName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	mustOpen(t, cfg).crash()
	edit(snap.Fleet)
	if b, err = json.Marshal(&snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err = Open(cfg)
	if err == nil {
		c.Close()
	}
	return err
}

// TestSnapshotDuplicateResidentRefused: snapshot.json has no checksum, and
// a resident listed twice would count two VMs on its server for one, so
// the server would never empty or sleep. Open refuses it.
func TestSnapshotDuplicateResidentRefused(t *testing.T) {
	err := openEditedSnapshot(t, func(s *online.FleetSnapshot) { s.Residents = append(s.Residents, s.Residents[0]) })
	if !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("Open = %v, want ErrCorruptJournal", err)
	}
}

// TestSnapshotUnknownStateRefused: a unit state outside power-saving,
// waking and active would be served as is and never woken. Open refuses
// it.
func TestSnapshotUnknownStateRefused(t *testing.T) {
	err := openEditedSnapshot(t, func(s *online.FleetSnapshot) { s.Units[0].State = 9 })
	if !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("Open = %v, want ErrCorruptJournal", err)
	}
}

// TestOpenAllocIndependentOfLogLength: replay streams the log through one
// fixed buffer into one reused record, and interns the names it decodes,
// so what Open allocates does not grow with the log. Logs of 10k and 40k
// records must cost the same within 16 KiB, both tick-only and
// admit+release: a record slice or a whole-file read costs ≈167 B a
// record, 5 MB between the two tick logs, and a fresh VM type string per
// admit record 160 kB between the two admit+release logs.
func TestOpenAllocIndependentOfLogLength(t *testing.T) {
	openAlloc := func(log []byte) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 { // the least of three, against other goroutines' allocations
			dir := t.TempDir()
			writeJournal(t, dir, log)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c, err := Open(Config{Servers: testServers(4), IdleTimeout: 2, Dir: dir, SnapshotEvery: -1, DisableFsync: true})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			c.crash()
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	admits := admitReleaseLog(t, 40000)
	for _, tc := range []struct {
		name        string
		short, long []byte
	}{
		{"ticks", longTickLog(10000), longTickLog(40000)},
		{"admit+release", admits[:frameStarts(admits)[10000]], admits},
	} {
		short, long := openAlloc(tc.short), openAlloc(tc.long)
		if max(short, long)-min(short, long) >= 16<<10 {
			t.Errorf("%s: Open allocates %d B on a 10k-record log and %d B on a 40k-record one: want the same within 16 KiB", tc.name, short, long)
		}
	}
}

// admitReleaseLog is the first n records of a live cluster's log on four
// servers: each minute a tick, an admit of a Table I type that fits, and
// the release of the minute before's VM, so the fleet never holds more
// than two VMs however long the log.
func admitReleaseLog(t *testing.T, n int) []byte {
	t.Helper()
	var types []model.VMType
	for _, vt := range model.VMTypeCatalog() {
		if vt.CPU <= 10 && vt.Mem <= 16 {
			types = append(types, vt)
		}
	}
	dir := t.TempDir()
	c := mustOpen(t, Config{Servers: testServers(4), IdleTimeout: 2, Dir: dir, SnapshotEvery: -1, DisableFsync: true})
	defer c.crash()
	for m := 1; 3*m <= n+3; m++ {
		if err := c.AdvanceTo(m); err != nil {
			t.Fatal(err)
		}
		vt := types[m%len(types)]
		mustAdmit(t, c, api.AdmitRequest{ID: m, Type: vt.Name, Demand: model.Resources{CPU: vt.CPU, Mem: vt.Mem}, Start: m, DurationMinutes: 5})
		if m > 1 {
			if _, err := c.Release(context.Background(), m-1); err != nil {
				t.Fatal(err)
			}
		}
	}
	log, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	offs := frameStarts(log)
	if len(offs) <= n {
		t.Fatalf("log holds %d records, want %d", len(offs)-1, n)
	}
	return log[:offs[n]]
}

// restartJournal writes BenchmarkRestore's journal: 30,000 standard-class
// VMs at ≈100 a minute on 256 servers, 10 % released early, the clock
// ticked every minute, no snapshot, cut one mean lifetime after the last
// arrival. It returns the config it was written with, its Dir a copy of
// the journal taken before Close (which snapshots), and its record count.
func restartJournal(b *testing.B) (Config, int) {
	b.Helper()
	inst, err := workload.Generate(workload.Spec{
		NumVMs: 30000, MeanInterArrival: 0.01, MeanLength: 10,
		Classes: []model.VMClass{model.ClassStandard},
	}, workload.FleetSpec{NumServers: 256, TransitionTime: 2}, 1)
	if err != nil {
		b.Fatal(err)
	}
	admits := map[int][]api.AdmitRequest{}
	releases := map[int][]int{}
	rng := rand.New(rand.NewSource(1))
	last := 0
	for _, v := range inst.VMs {
		length := v.End - v.Start + 1
		admits[v.Start] = append(admits[v.Start], api.AdmitRequest{
			ID: v.ID, Type: v.Type, Demand: v.Demand, Start: v.Start, DurationMinutes: length,
		})
		if length >= 2 && rng.Float64() < 0.1 {
			rel := v.Start + 1 + rng.Intn(length-1)
			releases[rel] = append(releases[rel], v.ID)
		}
		last = max(last, v.Start)
	}

	seed := b.TempDir()
	cfg := Config{Servers: inst.Servers, IdleTimeout: 2, Dir: seed, SnapshotEvery: -1, DisableFsync: true}
	c := mustOpenTB(b, cfg)
	ctx := context.Background()
	accepted := map[int]bool{}
	crash := last + 10
	for m := 1; m <= crash; m++ {
		if err := c.AdvanceTo(m); err != nil {
			b.Fatal(err)
		}
		if m == crash {
			break
		}
		if reqs := admits[m]; len(reqs) > 0 {
			resps, err := c.Admit(ctx, reqs)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range resps {
				accepted[r.ID] = r.Accepted
			}
		}
		for _, id := range releases[m] {
			if !accepted[id] {
				continue
			}
			if _, err := c.Release(ctx, id); err != nil {
				b.Fatal(err)
			}
		}
	}
	log, err := os.ReadFile(filepath.Join(seed, journalName))
	if err != nil {
		b.Fatal(err)
	}
	records := 0
	if _, err := readBinaryRecords(bytes.NewReader(log), int64(len(log)), func(*record) error { records++; return nil }); err != nil {
		b.Fatal(err)
	}
	frozen := b.TempDir()
	copyJournalDir(b, seed, frozen)
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
	cfg.Dir = frozen
	return cfg, records
}

// TestRestoreBoundedBySnapshotInterval: with SnapshotEvery = N and every
// snapshot succeeding, a crash between acknowledged mutations replays at
// most N−1 journal records, whatever the uptime — the mutation that makes
// the Nth record also snapshots and truncates the log. Each crash is a
// copy of the live directory, opened as a restart would open it; the
// bound is reached exactly, and the restart serves the live state.
func TestRestoreBoundedBySnapshotInterval(t *testing.T) {
	const every = 7
	cfg := Config{Servers: testServers(4), IdleTimeout: 2, Dir: t.TempDir(), SnapshotEvery: every, DisableFsync: true}
	c := mustOpen(t, cfg)
	defer c.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	var ids []int
	most := 0
	for op, now := 0, 0; op < 120; op++ {
		switch rng.Intn(3) {
		case 0:
			now += 1 + rng.Intn(3)
			if err := c.AdvanceTo(now); err != nil {
				t.Fatal(err)
			}
		case 1:
			reqs := make([]api.AdmitRequest, 1+rng.Intn(3))
			for k := range reqs {
				reqs[k] = api.AdmitRequest{ID: 1 + op*4 + k, Demand: model.Resources{CPU: float64(1 + rng.Intn(3)), Mem: 1}, DurationMinutes: 5 + rng.Intn(15)}
				ids = append(ids, reqs[k].ID)
			}
			if _, err := c.Admit(ctx, reqs); err != nil {
				t.Fatal(err)
			}
		case 2:
			if len(ids) > 0 {
				var nr *NotResidentError
				if _, err := c.Release(ctx, ids[rng.Intn(len(ids))]); err != nil && !errors.As(err, &nr) {
					t.Fatal(err)
				}
			}
		}
		crash := cfg
		crash.Dir = t.TempDir()
		copyJournalDir(t, cfg.Dir, crash.Dir)
		r := mustOpen(t, crash)
		n := r.Restored().Records
		live, err := stateDigest(c)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := stateDigest(r); err != nil || got != live {
			t.Fatalf("op %d: restart digest %s (%v), live %s", op, got, err, live)
		}
		r.crash()
		if n > every-1 {
			t.Fatalf("op %d: restart replayed %d records, SnapshotEvery %d bounds it to %d", op, n, every, every-1)
		}
		most = max(most, n)
	}
	if c.met.snapshots == 0 || c.met.snapshotErrors != 0 {
		t.Fatalf("%d snapshots, %d failed: the bound assumes snapshots that succeed", c.met.snapshots, c.met.snapshotErrors)
	}
	if most != every-1 {
		t.Fatalf("most records replayed = %d, want the bound %d reached", most, every-1)
	}
}

// BenchmarkRestore times Open of restartJournal's operator-restart-shaped
// journal, the restart a crashed shard waits on; each iteration opens a
// fresh copy of it, and snapshot-ns/op and replay-ns/op split Open's time
// into its phases (Cluster.Restored). Its 32,791 records replay in
// ≈1.39 MB/op and ≈1.18k allocs/op on a 2-vCPU container: the marks are
// each ledger's only store and replay compiles none of them, the event
// queue's slab and buckets are reused as events come and go, and the few
// VM type names are interned per read.
func BenchmarkRestore(b *testing.B) {
	cfg, records := restartJournal(b)
	frozen := cfg.Dir
	var phases Restore
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg.Dir = b.TempDir()
		copyJournalDir(b, frozen, cfg.Dir)
		b.StartTimer()
		c, err := Open(cfg)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		r := c.Restored()
		phases.Snapshot += r.Snapshot
		phases.Replay += r.Replay
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(cfg.Dir)
		b.StartTimer()
	}
	b.ReportMetric(float64(records), "records")
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(phases.Snapshot.Nanoseconds())/float64(b.N), "snapshot-ns/op")
	b.ReportMetric(float64(phases.Replay.Nanoseconds())/float64(b.N), "replay-ns/op")
}

// BenchmarkReplay times Replay of restartJournal's journal under every
// online.PolicyNames policy, each on a fleet of its own: what `vmserve
// -replay` runs. Replay only reads the directory, so every iteration
// reads the same one.
func BenchmarkReplay(b *testing.B) {
	cfg, records := restartJournal(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(cfg.Dir, cfg.Servers, cfg.IdleTimeout, registryPolicies(b, 1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records), "records")
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
