package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"vmalloc/internal/model"
)

func TestScanWorkers(t *testing.T) {
	cases := []struct {
		parallelism, want int
	}{
		{1, 1},  // forced sequential
		{3, 3},  // forced pool size
		{0, 1},  // the default is sequential, whatever the fleet size
		{-2, 1}, // as is anything below it
	}
	for _, c := range cases {
		if got := scanWorkers(c.parallelism); got != c.want {
			t.Errorf("scanWorkers(%d) = %d, want %d", c.parallelism, got, c.want)
		}
	}
	if e := NewScanEngine(0, minShard*100); e.workers != 1 {
		t.Errorf("NewScanEngine(0, %d) has %d workers, want 1", minShard*100, e.workers)
	}
}

// TestArgMinTieBreak drives the parallel reduction over a cost surface
// full of exact ties and checks it picks the same lowest index as the
// sequential loop.
func TestArgMinTieBreak(t *testing.T) {
	const n = 10 * minShard
	costs := make([]float64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range costs {
		costs[i] = float64(rng.Intn(4)) // few distinct values => many ties
	}
	eval := func(i int) (float64, bool) { return costs[i], i%7 != 3 }
	ctx := context.Background()

	seq := NewScanEngine(1, n)
	defer seq.Close()
	wantIdx, err := seq.ArgMin(ctx, seq.NewStats(), n, eval)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		par := NewScanEngine(workers, n)
		stats := par.NewStats()
		gotIdx, err := par.ArgMin(ctx, stats, n, eval)
		par.Close()
		if err != nil {
			t.Fatal(err)
		}
		if gotIdx != wantIdx {
			t.Errorf("workers=%d: ArgMin = %d, want %d", workers, gotIdx, wantIdx)
		}
		if stats.CandidatesEvaluated != int64(n) {
			t.Errorf("workers=%d: evaluated %d candidates, want %d", workers, stats.CandidatesEvaluated, n)
		}
	}
}

// TestFirstMatchesSequential checks the pruned parallel first-fit scan
// returns the lowest feasible index for hits early, late, and absent.
func TestFirstMatchesSequential(t *testing.T) {
	const n = 8 * minShard
	for _, hit := range []int{0, 1, minShard + 3, n - 1, -1} {
		feasible := func(i int) bool { return hit >= 0 && i >= hit }
		for _, workers := range []int{1, 2, 4, 8} {
			e := NewScanEngine(workers, n)
			got, err := e.First(context.Background(), e.NewStats(), n, feasible)
			e.Close()
			if err != nil {
				t.Fatal(err)
			}
			if got != hit {
				t.Errorf("workers=%d hit=%d: First = %d", workers, hit, got)
			}
		}
	}
}

// TestParallelMatchesSequential is the determinism table test: across
// several generated instances and both ablation options, the parallel
// engine must produce placements and energy breakdowns byte-identical to
// the sequential scan, for every allocator wired to the engine.
func TestParallelMatchesSequential(t *testing.T) {
	type mk func(par int) Allocator
	allocators := map[string]mk{
		"mincost": func(par int) Allocator { return NewMinCost(WithParallelism(par)) },
		"mincost/no-transition": func(par int) Allocator {
			return NewMinCost(WithParallelism(par), WithoutTransitionAwareness())
		},
		"mincost/no-memory": func(par int) Allocator {
			return NewMinCost(WithParallelism(par), WithoutMemoryCheck())
		},
		"lookahead": func(par int) Allocator { return NewLookahead(WithParallelism(par)) },
	}
	rng := rand.New(rand.NewSource(11))
	instances := []model.Instance{
		randomInstance(rng, 120, 3*minShard),
		randomInstance(rng, 200, 4*minShard),
		randomInstance(rng, 80, 2*minShard+5),
		sparseInstance(rng, 120, 3*minShard),
		sparseInstance(rng, 160, 4*minShard),
		sparseInstance(rng, 60, 2*minShard),
	}
	ctx := context.Background()
	for name, make := range allocators {
		for ii, inst := range instances {
			if name == "lookahead" && len(inst.VMs) > 120 {
				continue // O(n²) per VM; keep the table fast
			}
			seq, err := make(1).Allocate(ctx, inst)
			if err != nil {
				t.Fatalf("%s inst %d sequential: %v", name, ii, err)
			}
			for _, workers := range []int{2, 4, 8} {
				par, err := make(workers).Allocate(ctx, inst)
				if err != nil {
					t.Fatalf("%s inst %d workers=%d: %v", name, ii, workers, err)
				}
				if len(par.Placement) != len(seq.Placement) {
					t.Fatalf("%s inst %d workers=%d: %d placements, want %d",
						name, ii, workers, len(par.Placement), len(seq.Placement))
				}
				for id, sid := range seq.Placement {
					if par.Placement[id] != sid {
						t.Errorf("%s inst %d workers=%d: vm %d on server %d, want %d",
							name, ii, workers, id, par.Placement[id], sid)
					}
				}
				if par.Energy != seq.Energy {
					t.Errorf("%s inst %d workers=%d: energy %+v, want %+v",
						name, ii, workers, par.Energy, seq.Energy)
				}
				if par.ServersUsed != seq.ServersUsed {
					t.Errorf("%s inst %d workers=%d: %d servers used, want %d",
						name, ii, workers, par.ServersUsed, seq.ServersUsed)
				}
			}
		}
	}
}

// TestAllocateAlreadyCancelled: a cancelled context must be reported
// before any work happens, for every allocator in this package.
func TestAllocateAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(3))
	inst := randomInstance(rng, 40, 2*minShard)
	for _, a := range []Allocator{NewMinCost(), NewLookahead()} {
		res, err := a.Allocate(ctx, inst)
		if err != context.Canceled {
			t.Errorf("%s: err = %v, want context.Canceled", a.Name(), err)
		}
		if res != nil {
			t.Errorf("%s: got a result from a cancelled run", a.Name())
		}
	}
}

// TestAllocateMidRunCancellation cancels a large run shortly after it
// starts: Allocate must return ctx.Err() promptly and the scan workers
// must all exit (no goroutine leak).
func TestAllocateMidRunCancellation(t *testing.T) {
	// Big enough that the scan phase alone takes ~1s sequentially: the
	// 5ms cancel below lands mid-scan with two orders of magnitude to
	// spare on any machine.
	rng := rand.New(rand.NewSource(5))
	inst := randomInstance(rng, 20000, 512)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := NewMinCost(WithParallelism(4)).Allocate(ctx, inst)
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled (run took %v)", err, elapsed)
	}
	if res != nil {
		t.Fatal("got a result from a cancelled run")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	// The worker pool is closed synchronously by Allocate; give the
	// runtime a moment to retire exiting goroutines before comparing.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestStatsPopulated sanity-checks the observability record on a normal
// run: MinCost's, whose pass is sequential at every setting, and that of a
// rule that scans through the engine, asked for a pool of two.
func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := randomInstance(rng, 100, 2*minShard)
	for _, tt := range []struct {
		alloc   Allocator
		workers int
	}{
		{NewMinCost(WithParallelism(2)), 1},
		{NewLookahead(WithParallelism(2)), 2},
	} {
		res, err := tt.alloc.Allocate(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st == nil {
			t.Fatalf("%s: Stats is nil", tt.alloc.Name())
		}
		if st.VMsPlaced != len(inst.VMs) {
			t.Errorf("%s: VMsPlaced = %d, want %d", tt.alloc.Name(), st.VMsPlaced, len(inst.VMs))
		}
		if st.Workers != tt.workers {
			t.Errorf("%s: Workers = %d, want %d", tt.alloc.Name(), st.Workers, tt.workers)
		}
		// Every VM scans the whole fleet (minus early rejections, which still
		// count as evaluated).
		want := int64(len(inst.VMs) * len(inst.Servers))
		if st.CandidatesEvaluated != want {
			t.Errorf("%s: CandidatesEvaluated = %d, want %d", tt.alloc.Name(), st.CandidatesEvaluated, want)
		}
		if st.TotalWall <= 0 || st.ScanWall <= 0 {
			t.Errorf("%s: wall times not recorded: total %v scan %v", tt.alloc.Name(), st.TotalWall, st.ScanWall)
		}
		if st.WorkerUtilization <= 0 || st.WorkerUtilization > 1 {
			t.Errorf("%s: WorkerUtilization = %v, want (0,1]", tt.alloc.Name(), st.WorkerUtilization)
		}
	}
}

// TestArgMinAllocFree pins the zero-allocation contract of the steady
// state: once the engine's buffers are warm, parallel and sequential
// scans allocate nothing per call.
func TestArgMinAllocFree(t *testing.T) {
	const n = 256
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = float64(i % 17)
	}
	eval := func(i int) (float64, bool) { return costs[i], true }
	ctx := context.Background()
	for _, par := range []int{1, 4} {
		e := NewScanEngine(par, n)
		stats := e.NewStats()
		// Warm the buffers, then measure.
		if _, err := e.ArgMin(ctx, stats, n, eval); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			e.ArgMin(ctx, stats, n, eval) //nolint:errcheck
		})
		e.Close()
		if allocs != 0 {
			t.Fatalf("parallelism %d: %.1f allocations per scan, want 0", par, allocs)
		}
	}
}
