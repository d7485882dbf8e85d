package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestArgMinTieBreak drives the scan over a cost surface full of exact ties
// and infeasible candidates: the lowest index among the feasible minima
// wins, and every candidate is counted.
func TestArgMinTieBreak(t *testing.T) {
	const n = 160
	costs := make([]float64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range costs {
		costs[i] = float64(rng.Intn(4)) // few distinct values => many ties
	}
	feasible := func(i int) bool { return i%7 != 3 }
	want := -1
	for i := range costs {
		if feasible(i) && (want < 0 || costs[i] < costs[want]) {
			want = i
		}
	}
	var stats AllocStats
	got, err := argmin(context.Background(), &stats, n, func(i int) (float64, bool) { return costs[i], feasible(i) })
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("argmin = %d, want %d", got, want)
	}
	if stats.CandidatesEvaluated != n || stats.FeasibilityRejections != (n+3)/7 {
		t.Errorf("counted %d candidates and %d rejections, want %d and %d",
			stats.CandidatesEvaluated, stats.FeasibilityRejections, n, (n+3)/7)
	}
	if none, err := argmin(context.Background(), &stats, n, func(int) (float64, bool) { return 0, false }); none != -1 || err != nil {
		t.Errorf("argmin over no feasible candidate = %d, %v, want -1", none, err)
	}
}

// TestFirstLowestFeasible checks the first-fit scan returns the lowest
// feasible position, early, late and absent, and counts what it visited.
func TestFirstLowestFeasible(t *testing.T) {
	const n = 128
	for _, hit := range []int{0, 1, 19, n - 1, -1} {
		var stats AllocStats
		got, err := first(context.Background(), &stats, n, func(i int) bool { return hit >= 0 && i >= hit })
		if err != nil {
			t.Fatal(err)
		}
		if got != hit {
			t.Errorf("hit=%d: first = %d", hit, got)
		}
		visited, rejected := int64(hit+1), int64(hit)
		if hit < 0 {
			visited, rejected = n, n
		}
		if stats.CandidatesEvaluated != visited || stats.FeasibilityRejections != rejected {
			t.Errorf("hit=%d: counted %d candidates and %d rejections, want %d and %d",
				hit, stats.CandidatesEvaluated, stats.FeasibilityRejections, visited, rejected)
		}
	}
}

// TestAllocateAlreadyCancelled: a cancelled context must be reported
// before any work happens, for every allocator in this package.
func TestAllocateAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(3))
	inst := randomInstance(rng, 40, 32)
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
// starts: Allocate must return ctx.Err() promptly and leave no goroutine
// behind.
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
	res, err := NewMinCost().Allocate(ctx, inst)
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
	// Give the runtime a moment to retire the cancelling goroutine before
	// comparing.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestStatsPopulated sanity-checks the observability record on a normal
// run: MinCost's, whose pass counts for itself, and that of a rule that
// scans through Scan.ArgMin.
func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := randomInstance(rng, 100, 32)
	for _, alloc := range []Allocator{NewMinCost(), NewLookahead()} {
		res, err := alloc.Allocate(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st == nil {
			t.Fatalf("%s: Stats is nil", alloc.Name())
		}
		if st.VMsPlaced != len(inst.VMs) {
			t.Errorf("%s: VMsPlaced = %d, want %d", alloc.Name(), st.VMsPlaced, len(inst.VMs))
		}
		// Every VM scans the whole fleet (minus early rejections, which still
		// count as evaluated).
		want := int64(len(inst.VMs) * len(inst.Servers))
		if st.CandidatesEvaluated != want {
			t.Errorf("%s: CandidatesEvaluated = %d, want %d", alloc.Name(), st.CandidatesEvaluated, want)
		}
		if st.TotalWall <= 0 || st.ScanWall <= 0 {
			t.Errorf("%s: wall times not recorded: total %v scan %v", alloc.Name(), st.TotalWall, st.ScanWall)
		}
	}
}

// TestArgMinAllocFree pins the zero-allocation contract of the scan.
func TestArgMinAllocFree(t *testing.T) {
	const n = 256
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = float64(i % 17)
	}
	eval := func(i int) (float64, bool) { return costs[i], true }
	ctx := context.Background()
	var stats AllocStats
	allocs := testing.AllocsPerRun(50, func() {
		argmin(ctx, &stats, n, eval) //nolint:errcheck // the context is never cancelled
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per scan, want 0", allocs)
	}
}
