package cluster

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/energy"
	"vmalloc/internal/model"
	"vmalloc/internal/online"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this build's outcomes")

// scriptOutcome is the observable trace of one scripted run: every
// admission decision (server, start, end), every release, every
// consolidation's executed moves, and the final state digest. Two runs
// are behaviourally identical exactly when their outcomes are
// byte-identical strings.
type scriptOutcome struct {
	transcript string
	digest     string
}

// runScript drives cfg through a deterministic op stream derived from
// seed: mostly admits, with releases, clock advances and consolidation
// passes mixed in. The caller owns cfg.Dir (empty for volatile runs).
// Any preClose hooks run after the script but before Close — the moment
// a journaled directory still holds its record log, since Close
// compacts it into a snapshot.
func runScript(t *testing.T, cfg Config, seed int64, preClose ...func()) scriptOutcome {
	t.Helper()
	cfg.Servers = testServers(8)
	cfg.IdleTimeout = 3
	cfg.MigrationCostPerGB = 0.5
	c := mustOpenTB(t, cfg)
	defer func() {
		if err := c.Close(); err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	live := []int{}
	nextID := 1
	ctx := context.Background()
	for op := 0; op < 120; op++ {
		switch r := rng.Float64(); {
		case r < 0.55: // admit
			req := api.AdmitRequest{
				ID:              nextID,
				Demand:          model.Resources{CPU: float64(1 + rng.Intn(6)), Mem: float64(1 + rng.Intn(8))},
				Start:           c.State().Now + rng.Intn(4),
				DurationMinutes: 1 + rng.Intn(30),
			}
			nextID++
			adms, err := c.Admit(ctx, []api.AdmitRequest{req})
			if err != nil {
				t.Fatalf("seed %d op %d: admit: %v", seed, op, err)
			}
			a := adms[0]
			fmt.Fprintf(&sb, "admit id=%d ok=%t server=%d start=%d end=%d\n",
				a.ID, a.Accepted, a.Server, a.Start, a.End)
			// Placing a VM advances the clock to its start, which may
			// expire other leases: re-derive the live set.
			live = residentIDs(c)
		case r < 0.75 && len(live) > 0: // release
			id := live[rng.Intn(len(live))]
			rel, err := c.Release(ctx, id)
			var nre *NotResidentError
			if errors.As(err, &nre) {
				fmt.Fprintf(&sb, "release id=%d gone\n", id)
			} else if err != nil {
				t.Fatalf("seed %d op %d: release %d: %v", seed, op, id, err)
			} else {
				fmt.Fprintf(&sb, "release id=%d server=%d start=%d\n", id, rel.Server, rel.Start)
			}
			live = residentIDs(c)
		case r < 0.9: // advance the clock
			to := c.State().Now + 1 + rng.Intn(3)
			if err := c.AdvanceTo(to); err != nil {
				t.Fatalf("seed %d op %d: advance to %d: %v", seed, op, to, err)
			}
			fmt.Fprintf(&sb, "advance to=%d\n", to)
			live = residentIDs(c)
		default: // consolidation pass
			res, err := c.Consolidate(ctx, api.ConsolidateRequest{})
			if err != nil {
				t.Fatalf("seed %d op %d: consolidate: %v", seed, op, err)
			}
			fmt.Fprintf(&sb, "consolidate clock=%d donors=%d executed=%d saved=%g\n",
				res.Clock, res.Donors, res.Executed, res.EnergySavedWattMinutes)
			// Seq is deliberately omitted: it numbers journal records, so a
			// volatile run and a journaled run assign different values to
			// behaviourally identical migrations.
			for _, m := range res.Moves {
				fmt.Fprintf(&sb, "  move vm=%d from=%d to=%d t=%d handoff=%d start=%d end=%d policy=%s saved=%g cost=%g\n",
					m.VM, m.From, m.To, m.Time, m.Handoff, m.Start, m.End, m.Policy, m.SavedWattMinutes, m.CostWattMinutes)
			}
		}
	}
	digest, err := c.StateDigest()
	if err != nil {
		t.Fatalf("seed %d: digest: %v", seed, err)
	}
	for _, hook := range preClose {
		hook()
	}
	return scriptOutcome{transcript: sb.String(), digest: digest}
}

// copyJournalDir copies a journal directory's files, preserving the
// exact bytes of an uncompacted log.
func copyJournalDir(t testing.TB, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// residentIDs re-derives the live VM set after a clock advance expired
// some leases, in a deterministic order.
func residentIDs(c *Cluster) []int {
	st := c.State()
	ids := make([]int, 0, len(st.VMs))
	for _, v := range st.VMs {
		ids = append(ids, v.VM.ID)
	}
	sort.Ints(ids)
	return ids
}

// goldenPath holds, per policy and seed, the SHA-256 of the script's
// transcript and the final state digest, generated at the commit before
// the per-server row table replaced the candidate index and the worker
// pool ("the same numbers", pinned before the scan was touched).
const goldenPath = "testdata/determinism.golden"

// goldenLine renders one (policy, seed) outcome as its golden line.
func goldenLine(policy string, seed int64, o scriptOutcome) string {
	return fmt.Sprintf("%s %d %x %s\n", policy, seed, sha256.Sum256([]byte(o.transcript)), o.digest)
}

// scriptPolicy builds the named online policy for one script run; ffps
// draws its probe orders from the script's seed.
func scriptPolicy(t *testing.T, name string, seed int64) online.Policy {
	t.Helper()
	p, err := online.NewPolicy(name, online.DefaultDelayPenalty, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// exactPolicy is the suite's reference placement: the named policy's
// rule restated over model.Server and the energy package, with
// feasibility asked only of Ledger.MaxUsage (through FleetView.MaxUsage)
// on every server — no row summary, no shortcut. It borrows the real
// policy's Name, which the state digest covers.
type exactPolicy struct {
	online.Policy
	kind string
	rng  *rand.Rand // ffps: the same source NewFirstFitPolicy seeds
}

func (p *exactPolicy) Place(f *online.FleetView, v model.VM) (int, error) {
	fits := func(i int) bool {
		s := f.Server(i)
		if !v.Demand.Fits(s.Capacity) {
			return false
		}
		start := f.StartTime(i, v)
		cpu, mem := f.MaxUsage(i, start, start+v.Duration()-1)
		return cpu+v.Demand.CPU <= s.Capacity.CPU && mem+v.Demand.Mem <= s.Capacity.Mem
	}
	best := -1
	switch p.kind {
	case "ffps":
		for _, i := range p.rng.Perm(f.NumServers()) {
			if fits(i) {
				return i, nil
			}
		}
	case "prefer-active":
		bestSleeping := -1
		var bestSpare, bestWake float64
		for i := 0; i < f.NumServers(); i++ {
			if !fits(i) {
				continue
			}
			s := f.Server(i)
			if f.StateOf(i) != online.PowerSaving {
				if spare := s.Capacity.CPU - v.Demand.CPU; best < 0 || spare < bestSpare {
					best, bestSpare = i, spare
				}
			} else if wake := s.TransitionCost() + s.PIdle*float64(v.Duration()); bestSleeping < 0 || wake < bestWake {
				bestSleeping, bestWake = i, wake
			}
		}
		if best < 0 {
			best = bestSleeping
		}
	default: // mincost, delay-aware
		var bestCost float64
		for i := 0; i < f.NumServers(); i++ {
			if !fits(i) {
				continue
			}
			s := f.Server(i)
			cost := energy.RunCost(s, v)
			if f.StateOf(i) == online.PowerSaving {
				cost += s.TransitionCost()
			}
			if f.Running(i) == 0 {
				cost += s.PIdle * float64(v.Duration())
			}
			if p.kind == "delay-aware" {
				cost += online.DefaultDelayPenalty * float64(f.StartTime(i, v)-v.Start)
			}
			if best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
	}
	if best < 0 {
		return 0, &online.NoCapacityError{VM: v}
	}
	return best, nil
}

// TestDeterminismIndexAndParallelism is the metamorphic determinism
// suite, rows vs exact: the row table's shortcuts are pure optimisations,
// so the policies' passes over it and a reference placement that asks
// only Ledger.MaxUsage on every server must produce byte-identical
// placement transcripts and state digests on every seed and under every
// policy — including runs whose logs hold migrations from consolidation
// passes — and both must equal the committed golden, generated before the
// rows existed (-update rewrites it from the policies' own runs, only when
// a placement is meant to change).
func TestDeterminismIndexAndParallelism(t *testing.T) {
	var got strings.Builder
	for _, policy := range online.PolicyNames() {
		for seed := int64(1); seed <= 20; seed++ {
			rows := runScript(t, Config{Policy: scriptPolicy(t, policy, seed)}, seed)
			if !strings.Contains(rows.transcript, "executed=") {
				t.Fatalf("%s seed %d: script ran no consolidation pass", policy, seed)
			}
			got.WriteString(goldenLine(policy, seed, rows))
			exact := runScript(t, Config{Policy: &exactPolicy{
				Policy: scriptPolicy(t, policy, seed), kind: policy, rng: rand.New(rand.NewSource(seed)),
			}}, seed)
			if exact.transcript != rows.transcript {
				t.Fatalf("%s seed %d: the row pass diverged from the exact reference:\n%s",
					policy, seed, firstDiff(exact.transcript, rows.transcript))
			}
			if exact.digest != rows.digest {
				t.Fatalf("%s seed %d: rows digest = %s, exact reference = %s", policy, seed, rows.digest, exact.digest)
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("outcomes differ from %s:\n%s", goldenPath, firstDiff(string(want), got.String()))
	}
}

// TestDeterminismJournalReplay extends the suite across the
// persistence axis: the same script against a journaled cluster must
// match the volatile run's transcript and digest, and two directories
// must replay to that digest — the snapshot-compacted one (clean close)
// and the pre-close copy whose full binary record log rebuilds the state.
func TestDeterminismJournalReplay(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		base := runScript(t, Config{}, seed)
		dir, replayDir := t.TempDir(), t.TempDir()
		cfg := Config{Dir: dir, SnapshotEvery: -1, DisableFsync: true}
		got := runScript(t, cfg, seed, func() { copyJournalDir(t, dir, replayDir) })
		if got.transcript != base.transcript {
			t.Fatalf("seed %d: journaled transcript diverged from volatile run:\n%s",
				seed, firstDiff(base.transcript, got.transcript))
		}
		if got.digest != base.digest {
			t.Fatalf("seed %d: journaled digest = %s, volatile = %s", seed, got.digest, base.digest)
		}

		cfg.Servers = testServers(8)
		cfg.IdleTimeout = 3
		cfg.MigrationCostPerGB = 0.5
		for name, rd := range map[string]string{"compacted": dir, "binary log": replayDir} {
			rcfg := cfg
			rcfg.Dir = rd
			c, err := Open(rcfg)
			if err != nil {
				t.Fatalf("seed %d: reopen %s: %v", seed, name, err)
			}
			replayed, err := c.StateDigest()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if replayed != base.digest {
				t.Fatalf("seed %d: %s replayed digest = %s, volatile = %s", seed, name, replayed, base.digest)
			}
		}
	}
}

// firstDiff renders the first line where two transcripts diverge.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  baseline: %s\n  got:      %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
