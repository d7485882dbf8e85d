package cluster

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
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
		_, got, ok := rec.Samples(-1, 1)
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
	if _, last, _ := rec.Samples(-1, 1); len(last.Classes) < 3 || last.Classes["default"].Servers != 1 {
		t.Fatalf("fixture is too plain to prove anything: classes %+v", last.Classes)
	}
}

// TestEnergyMetricsUntorn interleaves clock advances with scrapes of the
// vmalloc_energy_* families. Each tick is the one mutation of its minute,
// so every sample recorded has seq equal to its clock, and a scrape that
// read the count and the sample in one critical section prints
// vmalloc_energy_samples_total equal to vmalloc_energy_clock_minutes.
func TestEnergyMetricsUntorn(t *testing.T) {
	rec := obs.NewEnergyRecorder(8)
	c := mustOpen(t, Config{Servers: testServers(4), IdleTimeout: 2, Energy: rec})
	defer c.Close()
	const ticks = 3000
	done := make(chan error, 1)
	go func() {
		for k := 1; k <= ticks; k++ {
			if err := c.AdvanceTo(k); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	scrapes := 0
	for running := true; running; scrapes++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		var buf bytes.Buffer
		rec.WriteMetrics(&buf)
		var seq, clock string
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "vmalloc_energy_samples_total "); ok {
				seq = v
			}
			if v, ok := strings.CutPrefix(line, "vmalloc_energy_clock_minutes "); ok {
				clock = v
			}
		}
		if clock == "" && seq == "0" {
			continue // no tick yet
		}
		if seq != clock {
			t.Fatalf("scrape %d: vmalloc_energy_samples_total %s beside vmalloc_energy_clock_minutes %s", scrapes, seq, clock)
		}
	}
	if _, last, _ := rec.Samples(-1, 1); last.Clock != ticks || last.Seq != ticks {
		t.Fatalf("newest sample %+v, want clock and seq %d", last, ticks)
	}
}

// BenchmarkSampleEnergy is one energy sample of a 512-server fleet with
// about half its servers active — what a fleet minute pays under the
// cluster lock, once, when its clock moves or the recorder is read.
func BenchmarkSampleEnergy(b *testing.B) {
	c := sampledFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c.mu.Lock()
		c.energyDue = 1
		c.sampleEnergyLocked()
		c.mu.Unlock()
	}
}

// BenchmarkReleaseSampled is one release and one re-admission of a VM at
// one clock on BenchmarkSampleEnergy's fleet with the recorder wired: the
// per-mutation cost under the cluster lock, which counts the due sample
// and builds none.
func BenchmarkReleaseSampled(b *testing.B) {
	c := sampledFleet(b)
	ctx := context.Background()
	req := []api.AdmitRequest{{ID: 1, Demand: model.Resources{CPU: 2, Mem: 3}, DurationMinutes: 500}}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := c.Release(ctx, 1); err != nil {
			b.Fatal(err)
		}
		if adm, err := c.Admit(ctx, req); err != nil || !adm[0].Accepted {
			b.Fatal(adm, err)
		}
	}
}

// sampledFleet is a volatile cluster on energyFleet(512) with a recorder
// wired, about half its servers active at clock 10.
func sampledFleet(b *testing.B) *Cluster {
	c, err := Open(Config{Servers: energyFleet(b, 512), IdleTimeout: 2, Energy: obs.NewEnergyRecorder(64)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
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
	return c
}
