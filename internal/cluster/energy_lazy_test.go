package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
	"vmalloc/internal/workload"
)

// TestEnergyReadsMatchEagerSampling is the differential test of the
// sample built on read: a seeded script of admits, releases, clock
// advances, migrations and consolidation passes runs against a vmserve
// handler, while an eager recorder is fed referenceSample after every
// mutation that counts one. Reads of /v1/debug/energy and /metrics placed
// at random points must show what the eager recorder holds — the series,
// seq, rates, totals and the vmalloc_energy_* families — Wall aside.
func TestEnergyReadsMatchEagerSampling(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		inst, err := workload.Generate(
			workload.Spec{NumVMs: 1, MeanInterArrival: 1, MeanLength: 1},
			workload.FleetSpec{NumServers: 12, TransitionTime: 2}, seed)
		if err != nil {
			t.Fatal(err)
		}
		inst.Servers[0].Type = ""
		lazy, eager := obs.NewEnergyRecorder(16), obs.NewEnergyRecorder(16)
		c, err := cluster.Open(cluster.Config{Servers: inst.Servers, IdleTimeout: 2, Energy: lazy, MigrationCostPerGB: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(clusterhttp.New(c, nil))
		ctx := context.Background()
		rng := rand.New(rand.NewSource(seed))
		reads, consolidated := 0, 0
		for op := 0; op < 300; op++ {
			counted := false
			switch r := rng.Intn(20); {
			case r < 8:
				reqs := make([]api.AdmitRequest, 1+rng.Intn(3))
				for k := range reqs {
					reqs[k] = api.AdmitRequest{
						Start:           c.Now() + rng.Intn(3),
						Demand:          model.Resources{CPU: float64(1 + rng.Intn(4)), Mem: float64(1 + rng.Intn(6))},
						DurationMinutes: 1 + rng.Intn(30),
					}
				}
				_, err = c.Admit(ctx, reqs)
				counted = err == nil
			case r < 12:
				if vms := c.State().VMs; len(vms) > 0 {
					_, err = c.Release(ctx, vms[rng.Intn(len(vms))].VM.ID)
					counted = err == nil
				}
			case r < 16:
				if vms := c.State().VMs; len(vms) > 0 {
					_, err = c.Migrate(ctx, vms[rng.Intn(len(vms))].VM.ID, inst.Servers[rng.Intn(len(inst.Servers))].ID)
					counted = err == nil
				}
			case r < 18:
				res, err := c.Consolidate(ctx, api.ConsolidateRequest{Policy: []string{api.PolicyMinMigrationTime, api.PolicyMinUtilization}[rng.Intn(2)]})
				if counted = err == nil; counted {
					consolidated += res.Executed
				}
			default:
				t0 := c.Now()
				to := t0 + rng.Intn(4)
				if err = c.AdvanceTo(to); err != nil {
					t.Fatal(err)
				}
				counted = to > t0
			}
			if counted {
				eager.Record(c.ReferenceSample())
			}
			switch rng.Intn(6) {
			case 0:
				checkDebugEnergy(t, srv.URL, eager, seed, op)
				reads++
			case 1:
				checkEnergyFamilies(t, srv.URL, eager, seed, op)
				reads++
			}
		}
		checkDebugEnergy(t, srv.URL, eager, seed, -1)
		checkEnergyFamilies(t, srv.URL, eager, seed, -1)
		kept, _, _ := eager.Samples(-1, 0)
		if n, st := len(kept), c.State(); n < 8 || reads < 50 || st.Migrations <= consolidated || consolidated == 0 {
			t.Fatalf("seed %d: script too plain: %d samples kept, %d reads, %d migrations, %d by consolidation",
				seed, n, reads, st.Migrations, consolidated)
		}
		srv.Close()
		c.Close()
	}
}

// checkDebugEnergy compares GET /v1/debug/energy with the eager
// recorder's series, field by field but Wall.
func checkDebugEnergy(t *testing.T, url string, eager *obs.EnergyRecorder, seed int64, op int) {
	t.Helper()
	var got api.EnergyResponse
	if err := json.Unmarshal(get(t, url+"/v1/debug/energy"), &got); err != nil {
		t.Fatal(err)
	}
	samples, last, _ := eager.Samples(-1, 0)
	if samples == nil {
		samples = []obs.EnergySample{}
	}
	want := api.EnergyResponse{Count: len(samples), Samples: samples, Now: last.Clock, TotalWattMinutes: last.TotalWattMinutes}
	for k := range got.Samples {
		if k < len(want.Samples) {
			got.Samples[k].Wall = want.Samples[k].Wall
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d op %d: /v1/debug/energy\n got %+v\nwant %+v", seed, op, got, want)
	}
}

// checkEnergyFamilies compares the vmalloc_energy_* lines of GET /metrics
// with the eager recorder's.
func checkEnergyFamilies(t *testing.T, url string, eager *obs.EnergyRecorder, seed int64, op int) {
	t.Helper()
	var want bytes.Buffer
	eager.WriteMetrics(&want)
	if got, want := energyLines(get(t, url+"/metrics")), energyLines(want.Bytes()); got != want {
		t.Fatalf("seed %d op %d: energy families\n got %s\nwant %s", seed, op, got, want)
	}
}

func energyLines(b []byte) string {
	var out strings.Builder
	for sc := bufio.NewScanner(bytes.NewReader(b)); sc.Scan(); {
		if strings.Contains(sc.Text(), "vmalloc_energy_") {
			out.WriteString(sc.Text() + "\n")
		}
	}
	return out.String()
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
	}
	return b
}
