package timeline

import (
	"math/rand"
	"sort"
	"testing"
)

// naiveWindowMax computes MaxUsage by brute-force minute scan over the
// reservations — the reference the compiled step function must match.
func naiveWindowMax(entries map[int]Reservation, start, end int) (cpu, mem float64) {
	for t := start; t <= end; t++ {
		var c, m float64
		for _, r := range entries {
			if r.Interval.Start <= t && t <= r.Interval.End {
				c += r.CPU
				m += r.Mem
			}
		}
		if c > cpu {
			cpu = c
		}
		if m > mem {
			mem = m
		}
	}
	return cpu, mem
}

func TestLedgerMaxUsageMatchesNaiveRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLedger()
		mirror := map[int]Reservation{}
		nextID := 1
		for op := 0; op < 300; op++ {
			switch r := rng.Float64(); {
			case r < 0.55 || len(mirror) == 0:
				start := 1 + rng.Intn(50)
				res := Reservation{
					Interval: Interval{Start: start, End: start + rng.Intn(30)},
					CPU:      float64(1+rng.Intn(8)) / 4,
					Mem:      float64(1+rng.Intn(8)) / 2,
				}
				l.Add(nextID, res)
				mirror[nextID] = res
				nextID++
			case r < 0.8:
				id := randomKey(rng, mirror)
				l.Remove(id)
				delete(mirror, id)
			default:
				id := randomKey(rng, mirror)
				newEnd := rng.Intn(90)
				l.Truncate(id, newEnd)
				if res, ok := mirror[id]; ok {
					if newEnd < res.Interval.Start {
						delete(mirror, id)
					} else if newEnd < res.Interval.End {
						res.Interval.End = newEnd
						mirror[id] = res
					}
				}
			}
			// Probe a handful of windows, including ones that poke out
			// past the busy span on either side.
			for q := 0; q < 5; q++ {
				qs := 1 + rng.Intn(100)
				qe := qs + rng.Intn(40)
				wantCPU, wantMem := naiveWindowMax(mirror, qs, qe)
				gotCPU, gotMem := l.MaxUsage(qs, qe)
				if gotCPU != wantCPU || gotMem != wantMem {
					t.Fatalf("seed %d op %d: MaxUsage(%d,%d) = (%v,%v), naive (%v,%v)",
						seed, op, qs, qe, gotCPU, gotMem, wantCPU, wantMem)
				}
			}
		}
	}
}

func TestLedgerSummaryMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLedger()
		mirror := map[int]Reservation{}
		for id := 1; id <= 20; id++ {
			start := 1 + rng.Intn(40)
			res := Reservation{
				Interval: Interval{Start: start, End: start + rng.Intn(25)},
				CPU:      float64(1+rng.Intn(8)) / 4,
				Mem:      float64(1+rng.Intn(8)) / 2,
			}
			l.Add(id, res)
			mirror[id] = res
			if id%3 == 0 {
				victim := randomKey(rng, mirror)
				l.Remove(victim)
				delete(mirror, victim)
			}

			sum := l.Summary()
			if len(mirror) == 0 {
				if sum.End >= sum.Start {
					t.Fatalf("seed %d: empty ledger summary %+v", seed, sum)
				}
				continue
			}
			lo, hi := 1<<30, 0
			for _, r := range mirror {
				if r.Interval.Start < lo {
					lo = r.Interval.Start
				}
				if r.Interval.End > hi {
					hi = r.Interval.End
				}
			}
			if sum.Start != lo || sum.End != hi {
				t.Fatalf("seed %d: span [%d,%d], want [%d,%d]", seed, sum.Start, sum.End, lo, hi)
			}
			peakCPU, peakMem := naiveWindowMax(mirror, lo, hi)
			if sum.PeakCPU != peakCPU || sum.PeakMem != peakMem {
				t.Fatalf("seed %d: peak (%v,%v), naive (%v,%v)", seed, sum.PeakCPU, sum.PeakMem, peakCPU, peakMem)
			}
			// Mins: brute-force minute scan of the busy span.
			minCPU, minMem := 1e18, 1e18
			for tt := lo; tt <= hi; tt++ {
				var c, m float64
				for _, r := range mirror {
					if r.Interval.Start <= tt && tt <= r.Interval.End {
						c += r.CPU
						m += r.Mem
					}
				}
				if c < minCPU {
					minCPU = c
				}
				if m < minMem {
					minMem = m
				}
			}
			if sum.MinCPU != minCPU || sum.MinMem != minMem {
				t.Fatalf("seed %d: min (%v,%v), naive (%v,%v)", seed, sum.MinCPU, sum.MinMem, minCPU, minMem)
			}
			// Peak runs: every minute of the run carries the peak, and no
			// earlier minute does (it is the first such segment).
			for tt := lo; tt <= hi; tt++ {
				c, m := naiveWindowMax(mirror, tt, tt)
				if inRun := sum.CPUPeakFrom <= tt && tt <= sum.CPUPeakTo; inRun && c != peakCPU || tt < sum.CPUPeakFrom && c == peakCPU {
					t.Fatalf("seed %d: cpu %v at minute %d, peak %v run [%d,%d]", seed, c, tt, peakCPU, sum.CPUPeakFrom, sum.CPUPeakTo)
				}
				if inRun := sum.MemPeakFrom <= tt && tt <= sum.MemPeakTo; inRun && m != peakMem || tt < sum.MemPeakFrom && m == peakMem {
					t.Fatalf("seed %d: mem %v at minute %d, peak %v run [%d,%d]", seed, m, tt, peakMem, sum.MemPeakFrom, sum.MemPeakTo)
				}
			}
			if sum.CPUPeakFrom > sum.CPUPeakTo || sum.CPUPeakFrom < lo || sum.CPUPeakTo > hi ||
				sum.MemPeakFrom > sum.MemPeakTo || sum.MemPeakFrom < lo || sum.MemPeakTo > hi {
				t.Fatalf("seed %d: peak runs outside the span: %+v", seed, sum)
			}
			// The summary bounds must bracket every window answer.
			for q := 0; q < 10; q++ {
				qs := lo + rng.Intn(hi-lo+1)
				qe := qs + rng.Intn(hi-qs+1)
				cpu, mem := l.MaxUsage(qs, qe)
				if cpu > sum.PeakCPU || mem > sum.PeakMem {
					t.Fatalf("seed %d: window max (%v,%v) above peak (%v,%v)", seed, cpu, mem, sum.PeakCPU, sum.PeakMem)
				}
				if cpu < sum.MinCPU || mem < sum.MinMem {
					t.Fatalf("seed %d: window [%d,%d] ⊆ span but max (%v,%v) below span min (%v,%v)",
						seed, qs, qe, cpu, mem, sum.MinCPU, sum.MinMem)
				}
			}
		}
	}
}

// TestLedgerMaxUsageAllocFree pins the hot-path contract: a compiled
// ledger answers window queries without allocating.
func TestLedgerMaxUsageAllocFree(t *testing.T) {
	l := NewLedger()
	rng := rand.New(rand.NewSource(7))
	for id := 1; id <= 32; id++ {
		start := 1 + rng.Intn(100)
		l.Add(id, Reservation{
			Interval: Interval{Start: start, End: start + rng.Intn(50)},
			CPU:      rng.Float64() * 4,
			Mem:      rng.Float64() * 8,
		})
	}
	allocs := testing.AllocsPerRun(100, func() {
		l.MaxUsage(40, 90)
	})
	if allocs != 0 {
		t.Fatalf("MaxUsage allocated %.1f objects per call, want 0", allocs)
	}
}

func randomKey(rng *rand.Rand, m map[int]Reservation) int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return 0
	}
	sort.Ints(keys) // deterministic pick regardless of map iteration order
	return keys[rng.Intn(len(keys))]
}
