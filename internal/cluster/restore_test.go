package cluster

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
	"vmalloc/internal/workload"
)

// BenchmarkRestore times Open of an operator-restart-shaped journal, the
// restart a crashed shard waits on: 30,000 standard-class VMs at ≈100 a
// minute on 256 servers, 10 % released early, the clock ticked every
// minute, no snapshot, cut one mean lifetime after the last arrival. The
// journal is copied before Close (which snapshots), and each iteration
// opens a fresh copy of it.
func BenchmarkRestore(b *testing.B) {
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
	records := countBinaryFrames(log)
	frozen := b.TempDir()
	copyJournalDir(b, seed, frozen)
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}

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
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(cfg.Dir)
		b.StartTimer()
	}
	b.ReportMetric(float64(records), "records")
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
