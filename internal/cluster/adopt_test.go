package cluster

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
	"vmalloc/internal/online"
)

func adoptVM(id, start, end int) model.VM {
	return model.VM{ID: id, Demand: model.Resources{CPU: 2, Mem: 2}, Start: start, End: end}
}

// TestAdoptPlacesAndJournals: an adoption lands on a server, preserves
// the (start, end) identity the original owner granted, survives a
// crash via journal replay, and bumps nextID past the
// adopted ID so later auto-assigned admissions cannot collide with it.
func TestAdoptPlacesAndJournals(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, Config{Servers: testServers(2), IdleTimeout: 5, Dir: dir, DisableFsync: true})
	if err := c.AdvanceTo(4); err != nil {
		t.Fatal(err)
	}
	// Requested start 1, actually started at 2 on the old owner.
	p, handoff, err := c.Adopt(context.Background(), adoptVM(42, 1, 20), 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Start != 2 || p.End() != 21 {
		t.Fatalf("adopted interval = (%d, %d), want (2, 21)", p.Start, p.End())
	}
	if handoff != 5 {
		t.Fatalf("handoff = %d, want 5 (next minute at clock 4)", handoff)
	}

	// Idempotent retry: same VM, same actual start → same placement,
	// no second adoption.
	p2, _, err := c.Adopt(context.Background(), adoptVM(42, 1, 20), 2)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Fatalf("retried adopt = %+v, first = %+v", p2, p)
	}
	// A conflicting adoption under the same ID is refused.
	var aie *AdoptInfeasibleError
	if _, _, err := c.Adopt(context.Background(), adoptVM(42, 1, 30), 2); !errors.As(err, &aie) {
		t.Fatalf("conflicting adopt: %v, want *AdoptInfeasibleError", err)
	}

	if got := c.fleet.Snapshot().Adopted; got != 1 {
		t.Fatalf("adopted count = %d, want 1", got)
	}

	c.crash()
	r := mustOpen(t, Config{Servers: testServers(2), IdleTimeout: 5, Dir: dir, DisableFsync: true})
	defer r.Close()
	rp, ok := findVM(r, 42)
	if !ok || rp.Start != 2 || rp.End() != 21 || rp.Server != p.Server {
		t.Fatalf("replayed placement = %+v (ok=%v), want %+v", rp, ok, p)
	}
	if got := r.fleet.Snapshot().Adopted; got != 1 {
		t.Fatalf("replayed adopted count = %d, want 1", got)
	}
	// nextID replays past the adopted ID: an auto-ID admission must
	// not collide with 42.
	adms := mustAdmit(t, r, api.AdmitRequest{Demand: model.Resources{CPU: 1, Mem: 1}, Start: 4, DurationMinutes: 5})
	if adms[0].ID <= 42 {
		t.Fatalf("auto-assigned id %d ≤ adopted id 42", adms[0].ID)
	}
}

// TestMaxIntIDRefused: no id follows math.MaxInt, so an admission or an
// adoption under it is refused and nextID never wraps to a negative id;
// the auto-ID admission that follows replays from the journal.
func TestMaxIntIDRefused(t *testing.T) {
	cfg := Config{Servers: testServers(2), IdleTimeout: 5, Dir: t.TempDir(), DisableFsync: true}
	c := mustOpen(t, cfg)
	demand := model.Resources{CPU: 1, Mem: 1}
	adms, err := c.Admit(context.Background(), []api.AdmitRequest{{ID: math.MaxInt, Demand: demand, Start: 1, DurationMinutes: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if adms[0].Accepted || !strings.Contains(adms[0].Reason, "reserved") {
		t.Fatalf("admission under math.MaxInt = %+v, want a reserved-id rejection", adms[0])
	}
	var aie *AdoptInfeasibleError
	if _, _, err := c.Adopt(context.Background(), adoptVM(math.MaxInt, 1, 20), 1); !errors.As(err, &aie) {
		t.Fatalf("adoption under math.MaxInt: %v, want *AdoptInfeasibleError", err)
	}
	if adms := mustAdmit(t, c, api.AdmitRequest{Demand: demand, Start: 1, DurationMinutes: 5}); adms[0].ID != 1 {
		t.Fatalf("auto-assigned id %d, want 1", adms[0].ID)
	}
	want, err := stateDigest(c)
	if err != nil {
		t.Fatal(err)
	}
	c.crash()
	r, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if got, _ := stateDigest(r); got != want {
		t.Fatalf("reopened digest %s, want %s", got, want)
	}
}

// findVM looks a VM up in the cluster state by ID.
func findVM(c *Cluster, id int) (online.PlacedVM, bool) {
	for _, p := range c.State().VMs {
		if p.VM.ID == id {
			return p, true
		}
	}
	return online.PlacedVM{}, false
}

// TestAdoptPrefersAwakeServers: the deterministic target choice takes an
// already-awake server over waking a sleeping one.
func TestAdoptPrefersAwakeServers(t *testing.T) {
	c := mustOpen(t, Config{Servers: testServers(2), IdleTimeout: 100})
	defer c.Close()
	// Wake server index 1 (ID 2) with a regular admission.
	adms := mustAdmit(t, c, api.AdmitRequest{ID: 1, Demand: model.Resources{CPU: 1, Mem: 1}, Start: 1, DurationMinutes: 50})
	if err := c.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	p, _, err := c.Adopt(context.Background(), adoptVM(50, 1, 40), 1)
	if err != nil {
		t.Fatal(err)
	}
	woken := adms[0].Server
	if got := c.cfg.Servers[p.Server].ID; got != woken {
		t.Fatalf("adoption landed on server %d, want the awake server %d", got, woken)
	}
}

// TestAdoptInfeasible: an interval entirely in the past (the VM departed
// between drain planning and execution) is a typed refusal, and the
// fleet is untouched.
func TestAdoptInfeasible(t *testing.T) {
	c := mustOpen(t, Config{Servers: testServers(1), IdleTimeout: 5})
	defer c.Close()
	if err := c.AdvanceTo(50); err != nil {
		t.Fatal(err)
	}
	var aie *AdoptInfeasibleError
	if _, _, err := c.Adopt(context.Background(), adoptVM(7, 1, 20), 1); !errors.As(err, &aie) {
		t.Fatalf("expired adopt: %v, want *AdoptInfeasibleError", err)
	}
	if aie.Reason != "no remaining minutes to host" {
		t.Fatalf("reason = %q", aie.Reason)
	}
	if got := c.fleet.Snapshot().Adopted; got != 0 {
		t.Fatalf("adopted count = %d after refusal, want 0", got)
	}
}
