package cluster

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
)

// TestJournaledMutationsShareOneTail drives every synchronous journaled
// mutation into a journal whose next write fails. Each goes through the
// same tail (commitLocked), so each must behave the same way: the call
// returns ErrJournalBroken, its in-memory effect stays (memory runs
// ahead of the log by exactly that mutation), the next mutation is
// refused without effect, and a successful Snapshot — which captures
// the un-journaled effect — heals the cluster for good, restart
// included.
func TestJournaledMutationsShareOneTail(t *testing.T) {
	ctx := context.Background()
	servers := testServers(3)
	resident := func(st *api.StateResponse, id int) bool {
		for _, p := range st.VMs {
			if p.VM.ID == id {
				return true
			}
		}
		return false
	}
	cases := map[string]struct {
		do      func(c *Cluster) error
		applied func(st *api.StateResponse) bool
	}{
		"release": {
			do:      func(c *Cluster) error { _, err := c.Release(ctx, 1); return err },
			applied: func(st *api.StateResponse) bool { return !resident(st, 1) },
		},
		"migrate": {
			do: func(c *Cluster) error {
				onto := c.State().VMs[0].Server
				_, err := c.Migrate(ctx, 2, servers[(onto+1)%len(servers)].ID)
				return err
			},
			applied: func(st *api.StateResponse) bool { return st.Migrations == 1 },
		},
		"adopt": {
			do:      func(c *Cluster) error { _, _, err := c.Adopt(ctx, adoptVM(42, 1, 40), 2); return err },
			applied: func(st *api.StateResponse) bool { return resident(st, 42) },
		},
		"tick": {
			do:      func(c *Cluster) error { return c.AdvanceTo(9) },
			applied: func(st *api.StateResponse) bool { return st.Now == 9 },
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Servers: servers, IdleTimeout: 2, Dir: dir, SnapshotEvery: -1}
			c := mustOpen(t, cfg)
			defer c.Close()
			mustAdmit(t, c,
				api.AdmitRequest{ID: 1, Demand: model.Resources{CPU: 2, Mem: 2}, Start: 1, DurationMinutes: 50},
				api.AdmitRequest{ID: 2, Demand: model.Resources{CPU: 2, Mem: 4}, Start: 1, DurationMinutes: 60},
			)
			if err := c.AdvanceTo(5); err != nil {
				t.Fatal(err)
			}

			// A read-only handle makes the next append fail; putting the
			// good one back lets the healing snapshot compact the log.
			ro, err := os.Open(filepath.Join(dir, journalName))
			if err != nil {
				t.Fatal(err)
			}
			defer ro.Close()
			c.mu.Lock()
			good := c.jr.f
			c.jr.f = ro
			c.mu.Unlock()

			if err := tc.do(c); !errors.Is(err, ErrJournalBroken) {
				t.Fatalf("%s into a failing journal: err = %v, want ErrJournalBroken", name, err)
			}
			if !tc.applied(c.State()) {
				t.Errorf("%s lost its in-memory effect when the journal failed", name)
			}
			frozen := stateJSON(t, c)
			if err := c.AdvanceTo(1000); !errors.Is(err, ErrJournalBroken) {
				t.Errorf("advance past the hole: err = %v, want ErrJournalBroken", err)
			}
			if _, err := c.Release(ctx, 2); !errors.Is(err, ErrJournalBroken) {
				t.Errorf("release past the hole: err = %v, want ErrJournalBroken", err)
			}
			if got := stateJSON(t, c); !bytes.Equal(got, frozen) {
				t.Errorf("a refused mutation changed the state:\n--- after\n%s\n--- before\n%s", got, frozen)
			}

			c.mu.Lock()
			c.jr.f = good
			c.mu.Unlock()
			if err := c.Snapshot(); err != nil {
				t.Fatalf("healing snapshot: %v", err)
			}
			if err := c.AdvanceTo(10); err != nil {
				t.Fatalf("advance after the heal: %v", err)
			}
			want := stateJSON(t, c)
			c.crash()
			restored := mustOpen(t, cfg)
			defer restored.Close()
			if got := stateJSON(t, restored); !bytes.Equal(got, want) {
				t.Errorf("restart after the heal diverged:\n--- restored\n%s\n--- want\n%s", got, want)
			}
		})
	}
}
