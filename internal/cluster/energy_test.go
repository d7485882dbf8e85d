package cluster

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
	"vmalloc/internal/online"
	"vmalloc/internal/workload"
)

// referenceSample is the energy sample spelled the plain way — a
// string-keyed map filled server by server from the public view — which
// sampleEnergyLocked must reproduce exactly, float sums included (both
// accumulate each class in server-index order).
func referenceSample(c *Cluster) obs.EnergySample {
	now := c.fleet.Now()
	b := c.fleet.EnergyAt(now)
	s := obs.EnergySample{
		Clock:                 now,
		RunWattMinutes:        b.Run,
		IdleWattMinutes:       b.Idle,
		TransitionWattMinutes: b.Transition,
		TotalWattMinutes:      b.Total(),
		Classes:               map[string]obs.ClassUsage{},
	}
	fv := c.fleet.View()
	for i := 0; i < fv.NumServers(); i++ {
		srv := fv.Server(i)
		key := srv.Type
		if key == "" {
			key = "default"
		}
		cu := s.Classes[key]
		cu.Servers++
		s.Residents += fv.Running(i)
		switch fv.StateOf(i) {
		case online.Active:
			s.Active++
			cu.Active++
			cu.CPUCapacity += srv.Capacity.CPU
			cpu, _ := fv.MaxUsage(i, now, now)
			cu.CPUUsed += cpu
		case online.Waking:
			s.Waking++
		default:
			s.Sleeping++
		}
		s.Classes[key] = cu
	}
	for key, cu := range s.Classes {
		if cu.CPUCapacity > 0 {
			cu.Utilization = cu.CPUUsed / cu.CPUCapacity
			s.Classes[key] = cu
		}
	}
	return s
}

// energyFleet is a Table II fleet (several server classes) plus one
// untyped server, which samples file under "default".
func energyFleet(tb testing.TB, servers int) []model.Server {
	tb.Helper()
	inst, err := workload.Generate(
		workload.Spec{NumVMs: 1, MeanInterArrival: 1, MeanLength: 1},
		workload.FleetSpec{NumServers: servers, TransitionTime: 2}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	inst.Servers[0].Type = ""
	return inst.Servers
}

// TestEnergySampleMatchesReference: after every step of a seeded script
// of admits, releases and clock advances, the recorded sample equals the
// reference in every field the cluster fills.
func TestEnergySampleMatchesReference(t *testing.T) {
	rec := obs.NewEnergyRecorder(8)
	c := mustOpen(t, Config{Servers: energyFleet(t, 24), IdleTimeout: 2, Energy: rec})
	defer c.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	var live []int
	for op := 0; op < 200; op++ {
		switch r := rng.Intn(10); {
		case r < 5:
			adm := mustAdmit(t, c, api.AdmitRequest{
				Demand:          model.Resources{CPU: float64(1 + rng.Intn(4)), Mem: float64(1 + rng.Intn(6))},
				DurationMinutes: 1 + rng.Intn(20),
			})[0]
			if adm.Accepted {
				live = append(live, adm.ID)
			}
		case r < 7 && len(live) > 0:
			k := rng.Intn(len(live))
			c.Release(ctx, live[k]) //nolint:errcheck // already departed is fine: it samples nothing
			live = append(live[:k], live[k+1:]...)
		default:
			if err := c.AdvanceTo(c.Now() + 1 + rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
		}
		got, ok := rec.Last()
		if !ok {
			t.Fatalf("op %d: no sample recorded", op)
		}
		c.mu.Lock()
		want := referenceSample(c)
		c.mu.Unlock()
		want.Seq, want.Wall, want.RateWatts = got.Seq, got.Wall, got.RateWatts // the recorder's own stamps
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: sample\n got %+v\nwant %+v", op, got, want)
		}
	}
	if last, _ := rec.Last(); len(last.Classes) < 3 || last.Classes["default"].Servers != 1 {
		t.Fatalf("fixture is too plain to prove anything: classes %+v", last.Classes)
	}
}

// BenchmarkSampleEnergy is one energy sample of a 512-server fleet with
// about half its servers active — what every release, tick and batch pays
// under the cluster lock when the recorder is wired.
func BenchmarkSampleEnergy(b *testing.B) {
	c, err := Open(Config{Servers: energyFleet(b, 512), IdleTimeout: 2, Energy: obs.NewEnergyRecorder(64)})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	reqs := make([]api.AdmitRequest, 1200)
	for i := range reqs {
		reqs[i] = api.AdmitRequest{Demand: model.Resources{CPU: 2, Mem: 3}, DurationMinutes: 500}
	}
	if _, err := c.Admit(context.Background(), reqs); err != nil {
		b.Fatal(err)
	}
	if err := c.AdvanceTo(10); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c.mu.Lock()
		c.sampleEnergyLocked()
		c.mu.Unlock()
	}
}
