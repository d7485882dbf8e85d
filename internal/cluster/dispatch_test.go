package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
)

// waitParked returns once the dispatcher is blocked on c.mu inside
// processBatch and n Admit calls are parked in a select: the ones the
// dispatcher already took wait for their reply, the rest sit in admitCh's
// send queue. It reads the goroutine dump rather than sleeping: the
// runtime reports a goroutine as "[select]" only once it is enqueued on
// every channel of that select, so a parked sender is one the next
// non-blocking drain will take.
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		dump := string(buf[:runtime.Stack(buf, true)])
		parked, dispatcher := 0, false
		for _, g := range strings.Split(dump, "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			_, state, _ := strings.Cut(header, "[")
			switch {
			case strings.HasPrefix(state, "select") && strings.Contains(g, "cluster.(*Cluster).Admit("):
				parked++
			case strings.HasPrefix(state, "sync.Mutex.Lock") && strings.Contains(g, "cluster.(*Cluster).processBatch("):
				dispatcher = true
			}
		}
		if parked == n && dispatcher {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d Admit calls parked, dispatcher blocked: %v\n%s", parked, n, dispatcher, dump)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDispatchDrainsBacklog pins the dispatcher's batching rule, which has
// no timer in it: calls that queue while the dispatcher is busy (here: held
// off c.mu with one call in hand) are taken by one non-blocking drain, each
// caller gets exactly its own outcome, and every batch places like
// sequential admission of its calls in (start, ID) order.
func TestDispatchDrainsBacklog(t *testing.T) {
	const n = 48
	rec := obs.NewFlightRecorder(2 * n)
	cfg := Config{Servers: testServers(6), IdleTimeout: 1}
	live := cfg
	live.Recorder = rec
	c := mustOpen(t, live)
	defer c.Close()

	rng := rand.New(rand.NewSource(5))
	reqs := make([]api.AdmitRequest, n)
	for i, id := range rng.Perm(n) {
		reqs[i] = api.AdmitRequest{
			ID:              id + 1,
			Demand:          model.Resources{CPU: float64(1 + rng.Intn(3)), Mem: float64(1 + rng.Intn(4))},
			Start:           1 + rng.Intn(4),
			DurationMinutes: 20 + rng.Intn(40),
		}
	}

	// The first call advances the clock past some of the starts queued
	// behind it, so the drained batch's order is by the clamped start.
	reqs[0].Start = 3

	c.mu.Lock()
	got := make([]api.AdmitResponse, n)
	var wg sync.WaitGroup
	admit := func(i int) {
		defer wg.Done()
		adms, err := c.Admit(context.Background(), reqs[i:i+1])
		if err != nil || len(adms) != 1 {
			t.Errorf("vm %d: %d outcomes, error %v", reqs[i].ID, len(adms), err)
			return
		}
		got[i] = adms[0]
	}
	wg.Add(n)
	go admit(0)
	waitParked(t, 1) // the dispatcher holds call 0 and waits for the lock
	for i := 1; i < n; i++ {
		go admit(i)
	}
	waitParked(t, n)
	c.mu.Unlock()
	wg.Wait()

	c.mu.Lock()
	batches := c.met.batches
	c.mu.Unlock()
	if batches != 2 {
		t.Fatalf("%d parked calls took %d batches, want 2: the call that opened a batch while the lock was held, then one drain", n, batches)
	}

	// Which batch each call rode in comes from the flight recorder; the
	// order within a batch is restated here, not read back.
	byID := make(map[int]int, n)
	for i, req := range reqs {
		byID[req.ID] = i
	}
	members := make(map[uint64][]int)
	for _, d := range rec.Decisions(obs.Filter{}) {
		members[d.Batch] = append(members[d.Batch], byID[d.VM])
	}
	ref := mustOpen(t, cfg)
	defer ref.Close()
	seen := 0
	for b := uint64(1); b <= batches; b++ {
		now := max(ref.Now(), 1)
		start := func(i int) int { return max(reqs[i].Start, now) }
		idx := members[b]
		sort.Slice(idx, func(x, y int) bool {
			if start(idx[x]) != start(idx[y]) {
				return start(idx[x]) < start(idx[y])
			}
			return reqs[idx[x]].ID < reqs[idx[y]].ID
		})
		for _, i := range idx {
			want, err := ref.Admit(context.Background(), reqs[i:i+1])
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want[0] {
				t.Errorf("batch %d vm %d: concurrent %+v, sequential %+v", b, reqs[i].ID, got[i], want[0])
			}
			seen++
		}
	}
	if seen != n {
		t.Errorf("recorder placed %d calls in batches, want %d", seen, n)
	}
}

// TestDispatchIdleNeverLingers: with one caller nothing ever queues, so
// every call is its own batch — the dispatcher does not wait for company.
func TestDispatchIdleNeverLingers(t *testing.T) {
	c := mustOpen(t, Config{Servers: testServers(8), IdleTimeout: 2})
	defer c.Close()
	const n = 200
	for i := 0; i < n; i++ {
		mustAdmit(t, c, api.AdmitRequest{Demand: model.Resources{CPU: 0.1, Mem: 0.1}, DurationMinutes: 5})
	}
	c.mu.Lock()
	batches := c.met.batches
	c.mu.Unlock()
	if batches != n {
		t.Errorf("%d sequential admits made %d batches, want %d", n, batches, n)
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
