package cluster

import (
	"context"
	"sync"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
)

// TestGroupCommitCrashImage kills a cluster mid-group-commit — by
// copying its journal directory while concurrent admits are in flight,
// the bytes a new process would find if this one died — and replays the
// copy. The durability contract under group commit:
//
//   - every admission acknowledged before the copy began must be in the
//     replayed fleet (the ack happens only after a flush covering its
//     record);
//   - every VM in the replayed fleet must be one the test submitted —
//     an admitted-but-unjournaled VM can never materialize;
//   - the crash image replays to a digest that survives a close/reopen
//     round trip.
func TestGroupCommitCrashImage(t *testing.T) {
	dir := t.TempDir()
	crashDir := t.TempDir()
	c := mustOpenTB(t, Config{Servers: testServers(8), IdleTimeout: 5, Dir: dir, SnapshotEvery: -1})

	const (
		workers   = 8
		perWorker = 20
	)
	var (
		mu        sync.Mutex
		acked     = map[int]bool{}
		submitted = map[int]bool{}
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				id := w*perWorker + k + 1
				mu.Lock()
				submitted[id] = true
				mu.Unlock()
				adms, err := c.Admit(context.Background(), []api.AdmitRequest{
					{ID: id, Demand: model.Resources{CPU: 0.1, Mem: 0.1}, Start: 1, DurationMinutes: 1000},
				})
				if err != nil {
					t.Errorf("admit %d: %v", id, err)
					return
				}
				if adms[0].Accepted {
					mu.Lock()
					acked[id] = true
					mu.Unlock()
				}
			}
		}(w)
	}

	// Take the crash image mid-flight. The acked set is snapshotted
	// before the first byte is copied, so every ID in it was
	// acknowledged — and therefore flushed — before the copy began.
	mu.Lock()
	ackedBefore := make([]int, 0, len(acked))
	for id := range acked {
		ackedBefore = append(ackedBefore, id)
	}
	mu.Unlock()
	copyJournalDir(t, dir, crashDir)

	wg.Wait()
	groups, grouped := c.jr.groups.Load(), c.jr.grouped.Load()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if groups == 0 || grouped < groups {
		t.Fatalf("group commit never engaged: %d groups, %d grouped commits", groups, grouped)
	}

	cfg := Config{Servers: testServers(8), IdleTimeout: 5, Dir: crashDir, SnapshotEvery: -1}
	r, err := Open(cfg)
	if err != nil {
		t.Fatalf("replaying crash image: %v", err)
	}
	resident := map[int]bool{}
	for _, v := range r.State().VMs {
		resident[v.VM.ID] = true
		if !submitted[v.VM.ID] {
			t.Fatalf("replayed fleet holds VM %d, which was never submitted", v.VM.ID)
		}
	}
	for _, id := range ackedBefore {
		if !resident[id] {
			t.Fatalf("VM %d was acknowledged before the crash image was taken but is missing after replay", id)
		}
	}
	want, err := stateDigest(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stateDigest(r2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("crash-image digest changed across close/reopen: %s != %s", got, want)
	}
}
