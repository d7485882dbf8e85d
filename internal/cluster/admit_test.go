package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
)

// waitLockWaiters returns once n goroutines are blocked on c.mu inside a
// Cluster method. It reads the goroutine dump rather than sleeping.
func waitLockWaiters(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		dump := string(buf[:runtime.Stack(buf, true)])
		waiting := 0
		for _, g := range strings.Split(dump, "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			_, state, _ := strings.Cut(header, "[")
			if strings.HasPrefix(state, "sync.Mutex.Lock") && strings.Contains(g, "internal/cluster.(*Cluster).") {
				waiting++
			}
		}
		if waiting == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines wait for the cluster lock, want %d\n%s", waiting, n, dump)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmitCancelledPlacesNothing: an Admit whose context is already done
// returns the context's error and places nothing, so a caller told the
// call failed can retry without putting a second VM on the fleet.
func TestAdmitCancelledPlacesNothing(t *testing.T) {
	c := mustOpen(t, Config{Servers: testServers(8), IdleTimeout: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 50
	for i := 0; i < n; i++ {
		time.Sleep(time.Millisecond) // the cluster is idle when each call arrives
		_, err := c.Admit(ctx, []api.AdmitRequest{{Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 5}})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: error %v, want context.Canceled", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if vms := c.State().VMs; len(vms) != 0 {
		t.Errorf("%d of %d cancelled admissions are resident", len(vms), n)
	}
}

// TestAdmitCancelledWhileWaitingPlacesNothing: a context that ends while
// Admit waits for the cluster lock places nothing either.
func TestAdmitCancelledWhileWaitingPlacesNothing(t *testing.T) {
	c := mustOpen(t, Config{Servers: testServers(8), IdleTimeout: 2})
	ctx, cancel := context.WithCancel(context.Background())
	c.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, []api.AdmitRequest{{Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 5}})
		done <- err
	}()
	waitLockWaiters(t, 1)
	cancel()
	c.mu.Unlock()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if vms := c.State().VMs; len(vms) != 0 {
		t.Errorf("the cancelled admission is resident: %+v", vms)
	}
}

// TestConcurrentAdmitsAreSerial pins the serial rule: concurrent
// multi-VM Admit calls place exactly as admitting every journaled VM one
// at a time, in journal order, into a fresh cluster. A caller alone never
// waits for company: each of its calls is one batch.
func TestConcurrentAdmitsAreSerial(t *testing.T) {
	const callers, calls, tail = 8, 12, 40
	cfg := Config{Servers: testServers(48), IdleTimeout: 2}
	live := cfg
	live.Dir, live.SnapshotEvery, live.DisableFsync = t.TempDir(), -1, true
	c := mustOpen(t, live)
	defer c.Close()

	var mu sync.Mutex
	got := make(map[int]api.AdmitResponse)
	admit := func(rng *rand.Rand, start int) {
		reqs := make([]api.AdmitRequest, 1+rng.Intn(4))
		for i := range reqs {
			reqs[i] = api.AdmitRequest{
				Demand:          model.Resources{CPU: float64(1 + rng.Intn(3)), Mem: float64(1 + rng.Intn(4))},
				Start:           start + rng.Intn(3),
				DurationMinutes: 3 + rng.Intn(8),
			}
		}
		adms, err := c.Admit(context.Background(), reqs)
		if err != nil || len(adms) != len(reqs) {
			t.Errorf("%d outcomes for %d requests, error %v", len(adms), len(reqs), err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for _, a := range adms {
			if !a.Accepted {
				t.Errorf("vm %d rejected: %s", a.ID, a.Reason)
			}
			got[a.ID] = a
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for k := 0; k < calls; k++ {
				admit(rng, 1+3*k)
			}
		}(rand.New(rand.NewSource(int64(g + 1))))
	}
	wg.Wait()

	c.mu.Lock()
	before := c.met.batches
	c.mu.Unlock()
	rng := rand.New(rand.NewSource(99))
	for k := 0; k < tail; k++ {
		admit(rng, 40+3*k)
	}
	c.mu.Lock()
	after := c.met.batches
	c.mu.Unlock()
	if after-before != tail {
		t.Errorf("%d sequential calls made %d batches, want %d", tail, after-before, tail)
	}
	if t.Failed() {
		return
	}

	log, err := os.ReadFile(filepath.Join(live.Dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	var recs []record
	if _, err := readBinaryRecords(bytes.NewReader(log), int64(len(log)), collect(&recs)); err != nil {
		t.Fatal(err)
	}
	ref := mustOpen(t, cfg)
	defer ref.Close()
	for _, r := range recs {
		if r.Op != opAdmit {
			t.Fatalf("journal seq %d: op %d, want admit", r.Seq, r.Op)
		}
		want := mustAdmit(t, ref, api.AdmitRequest{
			ID:              r.VM.ID,
			Demand:          r.VM.Demand,
			Start:           r.VM.Start,
			DurationMinutes: r.VM.Duration(),
		})[0]
		a := got[r.VM.ID]
		if a.Server != want.Server || a.Start != want.Start || a.End != want.End {
			t.Errorf("vm %d: concurrent server %d [%d, %d], serial server %d [%d, %d]",
				r.VM.ID, a.Server, a.Start, a.End, want.Server, want.Start, want.End)
		}
	}
	if len(recs) != len(got) {
		t.Errorf("%d admissions journaled, %d answered", len(recs), len(got))
	}
}

// BenchmarkAdmitDurable is the admission path end to end in process:
// single-VM admits from concurrent callers into a journaled cluster with
// fsync on. The clock moves a minute every 200 admissions so the 64-server
// fleet never fills.
func BenchmarkAdmitDurable(b *testing.B) {
	for _, callers := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			c, err := Open(Config{Servers: testServers(64), IdleTimeout: 2, Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			var next, accepted atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < callers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						k := next.Add(1)
						if k > int64(b.N) {
							return
						}
						if k%200 == 0 {
							if err := c.AdvanceTo(int(k / 200)); err != nil {
								b.Error(err)
								return
							}
						}
						adms, err := c.Admit(context.Background(), []api.AdmitRequest{
							{ID: int(k), Demand: model.Resources{CPU: 1, Mem: 1.7}, DurationMinutes: 1},
						})
						if err != nil {
							b.Error(err)
							return
						}
						if adms[0].Accepted {
							accepted.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(accepted.Load())/b.Elapsed().Seconds(), "vms/s")
		})
	}
}
