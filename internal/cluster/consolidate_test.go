package cluster

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
	"vmalloc/internal/online"
	"vmalloc/internal/workload"
)

// migrationsOf returns the lifetime count and history, failing the test on
// a nil cluster.
func migrationsOf(t *testing.T, c *Cluster) (int, []api.MigrationRecord) {
	t.Helper()
	return c.Migrations()
}

// TestClusterMigrateDirect: a manual migration moves a resident VM,
// journals a migrate record, and both crash replay and snapshot
// compaction restore a byte-identical state and migration history.
func TestClusterMigrateDirect(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Servers: testServers(3), IdleTimeout: 2, Dir: dir, SnapshotEvery: -1,
		MigrationCostPerGB: 0.5,
	}
	c := mustOpen(t, cfg)
	ctx := context.Background()

	// Two co-located VMs on the first server the policy picks.
	mustAdmit(t, c,
		api.AdmitRequest{ID: 1, Demand: model.Resources{CPU: 2, Mem: 2}, Start: 1, DurationMinutes: 50},
		api.AdmitRequest{ID: 2, Demand: model.Resources{CPU: 2, Mem: 4}, Start: 1, DurationMinutes: 60},
	)
	if err := c.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}

	// Error surface before any mutation.
	if _, err := c.Migrate(ctx, 99, 2); !errors.As(err, new(*NotResidentError)) {
		t.Errorf("migrate of unknown vm = %v, want NotResidentError", err)
	}
	if _, err := c.Migrate(ctx, 1, 99); !errors.As(err, new(*MigrationInfeasibleError)) {
		t.Errorf("migrate to unknown server = %v, want MigrationInfeasibleError", err)
	}
	st := c.State()
	onto := st.VMs[0].Server // index of the hosting server
	if _, err := c.Migrate(ctx, 1, cfg.Servers[onto].ID); !errors.As(err, new(*MigrationInfeasibleError)) {
		t.Errorf("migrate onto the hosting server = %v, want MigrationInfeasibleError", err)
	}

	// Move VM 2 to a sleeping server: the migration wakes it.
	target := cfg.Servers[(onto+1)%3].ID
	rec, err := c.Migrate(ctx, 2, target)
	if err != nil {
		t.Fatal(err)
	}
	// The first admission woke a sleeping server (transition time 1), so
	// both VMs actually started at minute 2.
	want := api.MigrationRecord{
		Seq: rec.Seq, VM: 2, From: cfg.Servers[onto].ID, To: target,
		Time: 5, Handoff: 6, Start: 2, End: 61,
		Policy: "manual", CostWattMinutes: 0.5 * 4,
	}
	if rec != want {
		t.Fatalf("migration record %+v, want %+v", rec, want)
	}
	st = c.State()
	if st.Migrations != 1 || st.MigrationSaved != 0 {
		t.Fatalf("state migrations=%d saved=%g, want 1 and 0", st.Migrations, st.MigrationSaved)
	}
	if n, hist := migrationsOf(t, c); n != 1 || len(hist) != 1 || hist[0] != rec {
		t.Fatalf("Migrations() = %d %+v, want the one executed record", n, hist)
	}

	// Crash replay reproduces state and history byte-identically.
	wantState := stateJSON(t, c)
	c.crash()
	restored := mustOpen(t, cfg)
	if got := stateJSON(t, restored); !bytes.Equal(got, wantState) {
		t.Errorf("crash replay diverged:\n--- got\n%s\n--- want\n%s", got, wantState)
	}
	if n, hist := migrationsOf(t, restored); n != 1 || len(hist) != 1 || hist[0] != rec {
		t.Fatalf("replayed history = %d %+v, want the original record", n, hist)
	}

	// Graceful close compacts into a snapshot; the history must survive it.
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
	again := mustOpen(t, cfg)
	defer again.Close()
	if got := stateJSON(t, again); !bytes.Equal(got, wantState) {
		t.Errorf("post-compaction state diverged:\n--- got\n%s\n--- want\n%s", got, wantState)
	}
	if n, hist := migrationsOf(t, again); n != 1 || len(hist) != 1 || hist[0] != rec {
		t.Fatalf("post-compaction history = %d %+v, want the original record", n, hist)
	}
}

// TestOpenRefusesBadRates: a negative or non-finite migration cost or
// donor utilisation is a typed refusal from Open, before any journal
// directory is touched; 0 still means free moves and the default donor
// threshold.
func TestOpenRefusesBadRates(t *testing.T) {
	for _, bad := range []float64{-5, math.Inf(-1), math.Inf(1), math.NaN()} {
		for _, field := range []string{"MigrationCostPerGB", "DonorUtilization"} {
			dir := t.TempDir()
			cfg := Config{Servers: testServers(2), Dir: dir}
			if field == "MigrationCostPerGB" {
				cfg.MigrationCostPerGB = bad
			} else {
				cfg.DonorUtilization = bad
			}
			var ce *ConfigValueError
			if c, err := Open(cfg); !errors.As(err, &ce) || ce.Field != field {
				if err == nil {
					c.Close()
				}
				t.Errorf("%s %g: Open error %v, want a *ConfigValueError for %s", field, bad, err, field)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Errorf("%s %g: refused Open left %d files in the journal directory", field, bad, len(ents))
			}
		}
	}
	mustOpen(t, Config{Servers: testServers(2)}).Close()
}

// TestConsolidatePinned pins one fully hand-computed consolidation pass:
// two half-empty servers, one drain, an exact pay-for-itself net saving.
func TestConsolidatePinned(t *testing.T) {
	cfg := Config{
		Servers: testServers(3), IdleTimeout: 2,
		MigrationCostPerGB: 0.5,
	}
	c := mustOpen(t, cfg)
	defer c.Close()
	ctx := context.Background()

	// Both VMs land on one server; a manual migration splits them so two
	// servers sit at 20% utilisation each.
	mustAdmit(t, c,
		api.AdmitRequest{ID: 1, Demand: model.Resources{CPU: 2, Mem: 2}, Start: 1, DurationMinutes: 50}, // end 50
		api.AdmitRequest{ID: 2, Demand: model.Resources{CPU: 2, Mem: 2}, Start: 1, DurationMinutes: 60}, // end 60
	)
	src := c.State().VMs[0].Server
	other := (src + 1) % 3
	if _, err := c.Migrate(ctx, 2, cfg.Servers[other].ID); err != nil {
		t.Fatal(err)
	}
	if err := c.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}

	res, err := c.Consolidate(ctx, api.ConsolidateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != api.PolicyMinMigrationTime {
		t.Errorf("default policy = %q", res.Policy)
	}
	// One donor evaluated: both servers are under-utilised, but the second
	// received the first drain and is excluded from donor consideration.
	if res.Donors != 1 || res.Executed != 1 || len(res.Moves) != 1 {
		t.Fatalf("pass outcome %+v, want 1 donor, 1 move", res)
	}
	// Equal memory on both donors: the tie breaks to the lower index, so
	// VM 1's server drains onto VM 2's. Both VMs started at minute 2 (the
	// first admission woke a sleeping server), so VM 1 ends at 51. The
	// saving is exact: idle saved 100·(51+1−10), zero run re-pricing
	// (identical servers), zero idle extension (the target outlives the
	// migrant), cost 0.5·2.
	wantNet := 100.0*(51+1-10) - 0.5*2
	if res.EnergySavedWattMinutes != wantNet {
		t.Errorf("net saving %g, want %g", res.EnergySavedWattMinutes, wantNet)
	}
	m := res.Moves[0]
	if m.VM != 1 || m.From != cfg.Servers[src].ID || m.To != cfg.Servers[other].ID {
		t.Errorf("move %+v, want vm 1 from server %d to %d", m, cfg.Servers[src].ID, cfg.Servers[other].ID)
	}
	if m.Time != 10 || m.Handoff != 11 || m.Start != 2 || m.End != 51 {
		t.Errorf("move timing %+v, want time 10, handoff 11, (start,end)=(2,51)", m)
	}
	if m.Policy != api.PolicyMinMigrationTime || m.SavedWattMinutes != wantNet || m.CostWattMinutes != 1 {
		t.Errorf("move economics %+v", m)
	}
	st := c.State()
	if st.Migrations != 2 || st.MigrationSaved != wantNet {
		t.Errorf("state migrations=%d saved=%g, want 2 and %g", st.Migrations, st.MigrationSaved, wantNet)
	}
	// The migrated VM kept its identity.
	for _, p := range st.VMs {
		if p.VM.ID == 1 && (p.Start != 2 || p.End() != 51) {
			t.Errorf("vm 1 identity changed: start %d end %d", p.Start, p.End())
		}
	}

	// A second pass finds nothing left worth moving: the remaining server
	// is a receiver of this pass — but even fresh, draining it cannot pay
	// for itself (there is no cheaper host).
	res2, err := c.Consolidate(ctx, api.ConsolidateRequest{Policy: api.PolicyMinUtilization})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Executed != 0 {
		t.Errorf("second pass executed %d moves, want 0", res2.Executed)
	}
}

// TestConsolidateBusy: a pass racing an in-flight pass fails fast with
// ErrConsolidationBusy instead of queueing.
func TestConsolidateBusy(t *testing.T) {
	c := mustOpen(t, Config{Servers: testServers(2), IdleTimeout: 2})
	defer c.Close()
	c.consolidating.Store(true)
	if _, err := c.Consolidate(context.Background(), api.ConsolidateRequest{}); !errors.Is(err, ErrConsolidationBusy) {
		t.Fatalf("racing pass = %v, want ErrConsolidationBusy", err)
	}
	c.consolidating.Store(false)
	if _, err := c.Consolidate(context.Background(), api.ConsolidateRequest{}); err != nil {
		t.Fatalf("pass after release: %v", err)
	}
}

// TestConsolidateNeverWorse is the metamorphic guarantee, pinned over
// seeded random workloads and both policies: a consolidated cluster never
// ends with more total energy than an identical unconsolidated one, never
// changes any VM's (start, end), and the planner's saving estimate equals
// the realised energy difference exactly (the system is closed after the
// passes: only the clock advances).
func TestConsolidateNeverWorse(t *testing.T) {
	var executedTotal int
	for _, seed := range []int64{1, 2, 5, 9, 12, 31} {
		rng := rand.New(rand.NewSource(seed))
		inst, err := workload.Generate(
			workload.Spec{NumVMs: 60, MeanInterArrival: 4, MeanLength: 80},
			workload.FleetSpec{NumServers: 12, TransitionTime: 2},
			seed,
		)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Servers: inst.Servers, IdleTimeout: 3, MigrationCostPerGB: 0.25}
		base := mustOpen(t, cfg)
		cons := mustOpen(t, cfg)
		ctx := context.Background()

		lastEnd := 0
		for _, v := range online.ArrivalOrder(inst.VMs) {
			req := api.AdmitRequest{ID: v.ID, Demand: v.Demand, Start: v.Start, DurationMinutes: v.Duration()}
			a1, err1 := base.Admit(ctx, []api.AdmitRequest{req})
			a2, err2 := cons.Admit(ctx, []api.AdmitRequest{req})
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if a1[0] != a2[0] {
				t.Fatalf("seed %d: admissions diverged before any migration: %+v vs %+v", seed, a1[0], a2[0])
			}
			if a1[0].Accepted && a1[0].End > lastEnd {
				lastEnd = a1[0].End
			}
		}
		// Release a third of the residents in both clusters: fragmentation
		// is what gives consolidation something to do.
		for _, p := range base.State().VMs {
			if rng.Intn(3) != 0 {
				continue
			}
			if _, err := base.Release(ctx, p.VM.ID); err != nil {
				t.Fatal(err)
			}
			if _, err := cons.Release(ctx, p.VM.ID); err != nil {
				t.Fatal(err)
			}
		}
		mid := base.Now() + 5
		if err := base.AdvanceTo(mid); err != nil {
			t.Fatal(err)
		}
		if err := cons.AdvanceTo(mid); err != nil {
			t.Fatal(err)
		}

		policy := api.PolicyMinMigrationTime
		if seed%2 == 0 {
			policy = api.PolicyMinUtilization
		}
		var saved, costs float64
		for pass := 0; pass < 4; pass++ {
			res, err := cons.Consolidate(ctx, api.ConsolidateRequest{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			saved += res.EnergySavedWattMinutes
			for _, m := range res.Moves {
				costs += m.CostWattMinutes
			}
			executedTotal += res.Executed
			if res.Executed == 0 {
				break
			}
		}

		// Identity: same resident VMs with the same (start, end) — only the
		// hosting server may differ.
		ident := func(c *Cluster) map[int][2]int {
			out := map[int][2]int{}
			for _, p := range c.State().VMs {
				out[p.VM.ID] = [2]int{p.Start, p.End()}
			}
			return out
		}
		if got, want := ident(cons), ident(base); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: consolidation changed a VM identity:\ncons: %v\nbase: %v", seed, got, want)
		}

		// Drain both to the far future and compare realised energy.
		far := lastEnd + cfg.IdleTimeout + 10
		if err := base.AdvanceTo(far); err != nil {
			t.Fatal(err)
		}
		if err := cons.AdvanceTo(far); err != nil {
			t.Fatal(err)
		}
		eBase := base.State().TotalEnergy
		eCons := cons.State().TotalEnergy
		eps := 1e-6 * (1 + math.Abs(eBase))
		if eCons > eBase+eps {
			t.Errorf("seed %d: consolidation increased energy: %.6f > %.6f (saved %.6f)", seed, eCons, eBase, saved)
		}
		// The fleet's Eq. 8 books never consume the migration overhead — it
		// is a planner-side charge — so the realised watt-minute saving is
		// exactly the reported net plus the charged costs.
		if diff := eBase - eCons; math.Abs(diff-(saved+costs)) > eps {
			t.Errorf("seed %d: realised saving %.6f diverged from planner estimate %.6f + costs %.6f", seed, diff, saved, costs)
		}
		if err := base.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cons.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if executedTotal == 0 {
		t.Fatal("no seed executed a single migration; the property was never exercised")
	}
}

// TestClusterReplayWithMigrations is the durability property for the full
// op mix: random interleaved admit/release/advance/consolidate histories
// must replay from the journal to a byte-identical state and migration
// history, across both a crash and a graceful compacting close.
func TestClusterReplayWithMigrations(t *testing.T) {
	for _, seed := range []int64{3, 8, 21} {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		cfg := Config{
			Servers: testServers(6), IdleTimeout: 2, Dir: dir, SnapshotEvery: -1,
			MigrationCostPerGB: 0.1,
		}
		c := mustOpen(t, cfg)
		ctx := context.Background()

		clock := 1
		nextID := 1
		var issued []int
		for op := 0; op < 150; op++ {
			switch k := rng.Float64(); {
			case k < 0.5: // admit (may be rejected; rejections are not journaled)
				req := api.AdmitRequest{
					ID:              nextID,
					Demand:          model.Resources{CPU: float64(1 + rng.Intn(4)), Mem: float64(1 + rng.Intn(4))},
					Start:           clock + rng.Intn(3),
					DurationMinutes: 1 + rng.Intn(50),
				}
				nextID++
				issued = append(issued, req.ID)
				if _, err := c.Admit(ctx, []api.AdmitRequest{req}); err != nil {
					t.Fatal(err)
				}
			case k < 0.65 && len(issued) > 0: // release, possibly of a gone VM
				id := issued[rng.Intn(len(issued))]
				if _, err := c.Release(ctx, id); err != nil && !errors.As(err, new(*NotResidentError)) {
					t.Fatal(err)
				}
			case k < 0.8: // advance
				clock += rng.Intn(5)
				if err := c.AdvanceTo(clock); err != nil {
					t.Fatal(err)
				}
			default: // consolidate
				policy := api.PolicyMinMigrationTime
				if rng.Intn(2) == 0 {
					policy = api.PolicyMinUtilization
				}
				if _, err := c.Consolidate(ctx, api.ConsolidateRequest{Policy: policy}); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := stateJSON(t, c)
		wantN, wantHist := migrationsOf(t, c)
		c.crash()

		restored := mustOpen(t, cfg)
		if got := stateJSON(t, restored); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: crash replay diverged:\n--- got\n%s\n--- want\n%s", seed, got, want)
		}
		if n, hist := migrationsOf(t, restored); n != wantN || !reflect.DeepEqual(hist, wantHist) {
			t.Fatalf("seed %d: replayed migration history diverged: %d vs %d records", seed, len(hist), len(wantHist))
		}
		if err := restored.Close(); err != nil { // compacts into a snapshot
			t.Fatal(err)
		}
		again := mustOpen(t, cfg)
		if got := stateJSON(t, again); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: post-compaction state diverged", seed)
		}
		if n, hist := migrationsOf(t, again); n != wantN || !reflect.DeepEqual(hist, wantHist) {
			t.Fatalf("seed %d: post-compaction migration history diverged", seed)
		}
		if err := again.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
