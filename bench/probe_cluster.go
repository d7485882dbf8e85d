package main

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"vmalloc"
)

// probeCluster measures in-process group commit: an OpenCluster with the
// journal's fsync on, fed single-VM admissions by 1 and by 32 goroutines
// for about a second each. The gap between the two is roadmap item 2,
// measured without 32 sockets in the way.
func probeCluster(env *runEnv, out map[string]float64) error {
	inst, err := vmalloc.Generate(vmalloc.WorkloadSpec{NumVMs: 1, MeanInterArrival: 1, MeanLength: 1},
		vmalloc.FleetSpec{NumServers: 64, TransitionTime: 2}, env.seed)
	if err != nil {
		return err
	}
	for _, p := range []struct {
		name    string
		callers int
	}{{"cluster.group_commit_vms_per_s_c1", 1}, {"cluster.group_commit_vms_per_s_c32", 32}} {
		cfg := vmalloc.ClusterConfig{
			Servers:     inst.Servers,
			IdleTimeout: 2,
			BatchWindow: time.Millisecond, // vmserve's default
			Dir:         filepath.Join(env.tmp, p.name),
		}
		// The binary codec is the one roadmap item 3 keeps; the field that
		// selects it may be gone by then, so it is set by name.
		if f := reflect.ValueOf(&cfg).Elem().FieldByName("JournalFormat"); f.IsValid() && f.Kind() == reflect.String {
			f.SetString("binary")
		}
		c, err := vmalloc.OpenCluster(cfg)
		if err != nil {
			return err
		}
		rate, err := groupCommitRate(env.ctx, c, p.callers, time.Second/time.Duration(env.scale))
		c.Close() //nolint:errcheck // a throwaway directory
		if err != nil {
			return err
		}
		out[p.name] = rate
	}
	return nil
}

// groupCommitRate admits one-minute VMs from callers goroutines for the
// given time and returns accepted VMs per second. The clock moves a minute
// every 200 admissions so the fleet never fills.
func groupCommitRate(ctx context.Context, c *vmalloc.Cluster, callers int, d time.Duration) (float64, error) {
	var accepted, next atomic.Int64
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < d {
				n := next.Add(1)
				if n%200 == 0 {
					c.AdvanceTo(int(n / 200)) //nolint:errcheck // a broken journal also fails the next Admit
				}
				adm, err := c.Admit(ctx, []vmalloc.VMRequest{{
					ID: int(n), Demand: vmalloc.Resources{CPU: 1, Mem: 1.7}, DurationMinutes: 1,
				}})
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				if adm[0].Accepted {
					accepted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(accepted.Load()) / time.Since(t0).Seconds(), firstErr
}
