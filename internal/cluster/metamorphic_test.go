package cluster

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
	"vmalloc/internal/online"
)

// fleetMirror replays the cluster's request stream directly against a
// bare online.Fleet with the same policy, replicating the cluster's
// normalize semantics (clock floor at minute 1, past starts clamped to
// now, residency check) without any of its batching, journaling or
// locking machinery.
type fleetMirror struct {
	fleet *online.Fleet
	pol   online.Policy
}

func newFleetMirror(servers []model.Server, idleTimeout int) *fleetMirror {
	return &fleetMirror{
		fleet: online.NewFleet(servers, idleTimeout),
		pol:   &online.MinCostPolicy{},
	}
}

// admit mirrors normalize + place + commit for a single-request batch.
// It returns the admission the cluster is expected to produce.
func (m *fleetMirror) admit(req api.AdmitRequest) api.AdmitResponse {
	adm := api.AdmitResponse{ID: req.ID}
	now := m.fleet.Now()
	if now < 1 {
		now = 1
	}
	start := req.Start
	if start < now {
		start = now
	}
	vm := model.VM{
		ID:     req.ID,
		Type:   req.Type,
		Demand: req.Demand,
		Start:  start,
		End:    start + req.DurationMinutes - 1,
	}
	if _, resident := m.fleet.Resident(vm.ID); resident {
		return adm // rejected; the cluster fills in a reason
	}
	m.fleet.AdvanceTo(vm.Start)
	i, err := m.pol.Place(m.fleet.View(), vm)
	if err != nil {
		return adm
	}
	s, err := m.fleet.Commit(i, vm)
	if err != nil {
		return adm
	}
	adm.Accepted = true
	adm.Server = m.fleet.View().Server(i).ID
	adm.Start = s
	adm.End = s + vm.Duration() - 1
	return adm
}

// release mirrors Cluster.Release: residency check, then the fleet op.
func (m *fleetMirror) release(id int) (online.PlacedVM, bool) {
	if _, ok := m.fleet.Resident(id); !ok {
		return online.PlacedVM{}, false
	}
	p, err := m.fleet.Release(id)
	if err != nil {
		return online.PlacedVM{}, false
	}
	return p, true
}

// TestClusterMatchesFleetMetamorphic drives seeded random
// admit/release/advance sequences through a volatile Cluster and the
// bare-fleet mirror, and demands identical behaviour op by op and in the
// final accounting — the cluster's service layer (batching, dispatch,
// journaling hooks) must be semantically invisible.
func TestClusterMatchesFleetMetamorphic(t *testing.T) {
	types := model.VMTypeCatalog()
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		servers := testServers(3 + rng.Intn(5))
		c := mustOpen(t, Config{Servers: servers, IdleTimeout: 2})
		mirror := newFleetMirror(servers, 2)

		clock := 1
		nextID := 1
		var issued []int
		const ops = 400
		for op := 0; op < ops; op++ {
			switch k := rng.Float64(); {
			case k < 0.55: // admit
				vt := types[rng.Intn(len(types))]
				req := api.AdmitRequest{
					ID:              nextID,
					Type:            vt.Name,
					Demand:          vt.Resources(),
					Start:           clock + rng.Intn(4) - 1, // sometimes in the past: exercises clamping
					DurationMinutes: 1 + rng.Intn(40),
				}
				nextID++
				issued = append(issued, req.ID)
				adms, err := c.Admit(context.Background(), []api.AdmitRequest{req})
				if err != nil {
					t.Fatalf("seed %d op %d: admit: %v", seed, op, err)
				}
				want := mirror.admit(req)
				got := adms[0]
				got.Reason = "" // the mirror predicts outcomes, not prose
				want.Reason = ""
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: admission diverged\ncluster: %+v\nmirror:  %+v", seed, op, got, want)
				}
			case k < 0.85 && len(issued) > 0: // release (possibly gone or never admitted)
				id := issued[rng.Intn(len(issued))]
				p, err := c.Release(context.Background(), id)
				wantP, wantOK := mirror.release(id)
				var nre *NotResidentError
				switch {
				case err == nil && !wantOK:
					t.Fatalf("seed %d op %d: cluster released vm %d, mirror says not resident", seed, op, id)
				case err != nil && wantOK:
					t.Fatalf("seed %d op %d: cluster refused release of vm %d (%v), mirror released it", seed, op, id, err)
				case err != nil && !errors.As(err, &nre):
					t.Fatalf("seed %d op %d: release error is not *NotResidentError: %v", seed, op, err)
				case err == nil && (p.Server != wantP.Server || p.Start != wantP.Start || p.VM.ID != wantP.VM.ID):
					t.Fatalf("seed %d op %d: released placement diverged\ncluster: %+v\nmirror:  %+v", seed, op, p, wantP)
				}
			default: // advance
				clock += rng.Intn(6)
				if err := c.AdvanceTo(clock); err != nil {
					t.Fatalf("seed %d op %d: advance: %v", seed, op, err)
				}
				mirror.fleet.AdvanceTo(clock)
			}
		}

		st := c.State()
		fl := mirror.fleet
		if st.Now != fl.Now() || st.Admitted != fl.Admitted() || st.Released != fl.Released() {
			t.Fatalf("seed %d: counters diverged: cluster now=%d admitted=%d released=%d, mirror now=%d admitted=%d released=%d",
				seed, st.Now, st.Admitted, st.Released, fl.Now(), fl.Admitted(), fl.Released())
		}
		if st.Transitions != fl.Transitions() || st.ServersUsed != fl.ServersUsed() {
			t.Fatalf("seed %d: transitions/servers diverged: %d/%d vs %d/%d",
				seed, st.Transitions, st.ServersUsed, fl.Transitions(), fl.ServersUsed())
		}
		if want := fl.EnergyAt(fl.Now()).Total(); st.TotalEnergy != want {
			t.Fatalf("seed %d: energy diverged: cluster %.6f, mirror %.6f", seed, st.TotalEnergy, want)
		}
		if !reflect.DeepEqual(st.VMs, fl.Residents()) {
			t.Fatalf("seed %d: resident sets diverged\ncluster: %+v\nmirror:  %+v", seed, st.VMs, fl.Residents())
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
