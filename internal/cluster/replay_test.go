package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/loadgen"
	"vmalloc/internal/model"
	"vmalloc/internal/online"
	"vmalloc/internal/workload"
)

// replayGoldenPath pins Replay's rows on the runs TestReplayGolden drives.
// It was written while the service still ran an in-process shadow arena,
// each challenger stepped with the live fleet, and every row was checked
// against that arena's challenger, energy bit for bit; it has not moved
// since.
const replayGoldenPath = "testdata/replay.golden"

// registryPolicies builds every online.NewPolicy name, ffps drawing from
// seed, in online.PolicyNames order.
func registryPolicies(t testing.TB, seed int64) []online.Policy {
	t.Helper()
	var out []online.Policy
	for _, name := range online.PolicyNames() {
		out = append(out, scriptPolicy(t, name, seed))
	}
	return out
}

// replayLines renders rows as golden lines under label. The energy is
// printed in the shortest form that parses back to the same bits.
func replayLines(label string, rows []ReplayRow) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s %s decisions=%d divergences=%d rejections=%d energy=%s residents=%d clock=%d\n",
			label, r.Policy, r.Decisions, r.Divergences, r.Rejections,
			strconv.FormatFloat(r.EnergyWattMinutes, 'g', -1, 64), r.Residents, r.Clock)
	}
	return b.String()
}

// sameRow compares two rows field for field, the energy by its bits.
func sameRow(a, b ReplayRow) bool {
	eq := math.Float64bits(a.EnergyWattMinutes) == math.Float64bits(b.EnergyWattMinutes)
	a.EnergyWattMinutes, b.EnergyWattMinutes = 0, 0
	return eq && a == b
}

// checkControl asserts that the champion's own policy replays the
// champion's decisions: no divergence, and the live fleet's clock,
// residents and energy, bit for bit.
func checkControl(t *testing.T, label string, rows []ReplayRow, champion string, st *api.StateResponse) {
	t.Helper()
	for _, r := range rows {
		if r.Policy != champion {
			continue
		}
		if r.Divergences != 0 || r.Clock != st.Now || r.Residents != len(st.VMs) ||
			math.Float64bits(r.EnergyWattMinutes) != math.Float64bits(st.TotalEnergy) {
			t.Errorf("%s: control %+v, live clock %d, %d residents, energy %v", label, r, st.Now, len(st.VMs), st.TotalEnergy)
		}
		return
	}
	t.Fatalf("%s: no row for the champion %s", label, champion)
}

// replayCopy replays a copy of c's journal directory, taken before Close
// compacts the log, under every registry policy.
func replayCopy(t *testing.T, c *Cluster, seed int64) []ReplayRow {
	t.Helper()
	dir := t.TempDir()
	copyJournalDir(t, c.cfg.Dir, dir)
	rows, err := Replay(dir, c.cfg.Servers, c.cfg.IdleTimeout, registryPolicies(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// replaySchedule is the seeded loadgen run the schedule cases drive: a
// diurnal burst with early releases on a Table II fleet large enough that
// no policy refuses a VM.
func replaySchedule(t *testing.T) (*loadgen.Schedule, []model.Server) {
	t.Helper()
	sched, err := loadgen.BuildSchedule(loadgen.ScheduleSpec{
		Arrivals: workload.DiurnalSpec{
			NumVMs: 300, MeanInterArrival: 0.3, MeanLength: 30, PeakToTrough: 3, Period: 360,
		},
		ReleaseFraction: 0.3,
		Seed:            20260807,
	})
	if err != nil {
		t.Fatal(err)
	}
	servers, err := workload.FleetSpec{NumServers: 200, TransitionTime: 2}.Servers(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return sched, servers
}

// driveSchedule runs sched against c as the load generator's minute-step
// runner does: advance, admit the minute's requests in one call, release,
// and a final tick past the horizon. after, when non-nil, runs once step
// at is done.
func driveSchedule(t *testing.T, c *Cluster, sched *loadgen.Schedule, at int, after func()) {
	t.Helper()
	ctx := context.Background()
	for i, st := range sched.Steps {
		if err := c.AdvanceTo(st.Minute); err != nil {
			t.Fatal(err)
		}
		mustAdmit(t, c, st.Admits...)
		for _, id := range st.Releases {
			var nre *NotResidentError
			if _, err := c.Release(ctx, id); err != nil && !errors.As(err, &nre) {
				t.Fatal(err)
			}
		}
		if i == at && after != nil {
			after()
		}
	}
	if err := c.AdvanceTo(sched.Horizon + 1); err != nil {
		t.Fatal(err)
	}
}

// TestReplayGolden: Replay's rows over journal directories match
// testdata/replay.golden, under every registry policy, on
// determinism.golden's scripts with each registry policy as champion and
// on a seeded loadgen schedule, with consolidation off, a fleet no policy
// refuses on, and no snapshot before the copy. The control (the
// champion's own policy) diverges nowhere and ends at the live energy.
// Two cases show each gap of an offline replay alone: a VM the champion
// refuses leaves no record, so the log replays as if it never came; and a
// snapshot mid-run starts every policy from the champion's fleet there,
// asked only about the admissions after it.
func TestReplayGolden(t *testing.T) {
	var got strings.Builder
	for _, champion := range online.PolicyNames() {
		for seed := int64(1); seed <= 20; seed++ {
			label := fmt.Sprintf("script %s %d", champion, seed)
			cfg := Config{
				Policy: scriptPolicy(t, champion, seed), Servers: testServers(64),
				Dir: t.TempDir(), SnapshotEvery: -1, DisableFsync: true,
			}
			out := runScript(t, cfg, seed, false, func(c *Cluster) {
				rows := replayCopy(t, c, seed)
				checkControl(t, label, rows, cfg.Policy.Name(), c.State())
				got.WriteString(replayLines(label, rows))
			})
			if strings.Contains(out.transcript, "ok=false") {
				t.Fatalf("%s: the script refused a VM", label)
			}
		}
	}

	sched, servers := replaySchedule(t)
	open := func() *Cluster {
		return mustOpen(t, Config{Servers: servers, IdleTimeout: 2, Dir: t.TempDir(), SnapshotEvery: -1, DisableFsync: true})
	}
	c := open()
	driveSchedule(t, c, sched, -1, nil)
	rows := replayCopy(t, c, 7)
	checkControl(t, "schedule", rows, "online/mincost", c.State())
	got.WriteString(replayLines("schedule", rows))
	c.Close()

	// The refusal gap: one VM no server can host, admitted mid-run at the
	// live clock. No policy is asked about it.
	c = open()
	at := len(sched.Steps) / 2
	driveSchedule(t, c, sched, at, func() {
		adms, err := c.Admit(context.Background(), []api.AdmitRequest{{
			ID: 1 << 20, Demand: model.Resources{CPU: 1e6, Mem: 1e6}, Start: sched.Steps[at].Minute, DurationMinutes: 5,
		}})
		if err != nil || adms[0].Accepted {
			t.Fatalf("refusal case: %+v, %v", adms, err)
		}
	})
	if r := replayCopy(t, c, 7); replayLines("", r) != replayLines("", rows) {
		t.Errorf("refusal: replay %+v, without the refusal %+v", r, rows)
	}
	c.Close()

	// The window gap: a snapshot mid-run.
	c = open()
	driveSchedule(t, c, sched, at, func() {
		if err := c.Snapshot(); err != nil {
			t.Fatal(err)
		}
	})
	rows = replayCopy(t, c, 7)
	admitsAfter := 0
	for _, st := range sched.Steps[at+1:] {
		admitsAfter += len(st.Admits)
	}
	for _, r := range rows {
		if r.Decisions != admitsAfter {
			t.Errorf("snapshot: %s decided %d, want the %d admissions after the snapshot", r.Policy, r.Decisions, admitsAfter)
		}
	}
	checkControl(t, "snapshot", rows, "online/mincost", c.State())
	got.WriteString(replayLines("snapshot", rows))
	c.Close()

	if *updateGolden {
		if err := os.WriteFile(replayGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(replayGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(golden) {
		t.Fatalf("rows differ from %s:\n%s", replayGoldenPath, firstDiff(string(golden), got.String()))
	}
}

// TestReplayStartsFromSnapshot: every crash image of the durability
// script replays without a byte of its directory changing — a torn tail
// stays on disk — and every policy starts from the snapshot's fleet.
// Where the snapshot covers everything, each row is that fleet, asked
// nothing; where stale records precede the rest of the log, they are
// skipped, and the champion's policy ends where the whole log does.
func TestReplayStartsFromSnapshot(t *testing.T) {
	cfg := Config{Servers: testServers(6), IdleTimeout: 2, DisableFsync: true, SnapshotEvery: -1}
	fixtures := replayFixtures(t, cfg)
	replay := func(fx replayFixture) []ReplayRow {
		t.Helper()
		dir := fx.materialize(t)
		rows, err := Replay(dir, cfg.Servers, cfg.IdleTimeout, registryPolicies(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		fx.checkUnchanged(t, dir)
		return rows
	}
	whole := replay(fixtures["log only"])
	for name, fx := range fixtures {
		rows := replay(fx)
		switch name {
		case "log only, torn tail":
			if replayLines("", rows) != replayLines("", whole) {
				t.Errorf("%s: %+v, want the whole log's %+v", name, rows, whole)
			}
		case "snapshot covers everything":
			var snap snapshotFile
			if err := json.Unmarshal(fx.snapshot, &snap); err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if r.Decisions != 0 || r.Residents != len(snap.Fleet.Residents) || r.Residents == 0 || r.Clock != snap.Fleet.Now {
					t.Errorf("%s: %+v, want the snapshot's %d residents at minute %d", name, r, len(snap.Fleet.Residents), snap.Fleet.Now)
				}
			}
		case "stale records", "stale records, torn tail":
			champion, full := rows[0], whole[0]
			if champion.Decisions >= full.Decisions || champion.Divergences != 0 {
				t.Errorf("%s: champion %+v, want fewer decisions than the whole log's %d", name, champion, full.Decisions)
			}
			champion.Decisions = full.Decisions
			if !sameRow(champion, full) {
				t.Errorf("%s: champion %+v, whole log %+v", name, champion, full)
			}
		}
	}
}
