package online

import (
	"math/rand"
	"testing"

	"vmalloc/internal/model"
)

// exactFits is the reference the row shortcuts are checked against: the
// capacity test and the ledger's window maximum, nothing else.
func exactFits(f *FleetView, i int, v model.VM, start int) bool {
	u := &f.units[i]
	if !v.Demand.Fits(u.srv.Capacity) {
		return false
	}
	cpu, mem := u.res.MaxUsage(start, start+v.Duration()-1)
	return cpu+v.Demand.CPU <= u.srv.Capacity.CPU && mem+v.Demand.Mem <= u.srv.Capacity.Mem
}

// loadedFleet commits up to n random VMs onto random servers that can
// take them.
func loadedFleet(t *testing.T, rng *rand.Rand, servers []model.Server, n int, gen func(id int) model.VM) *Fleet {
	t.Helper()
	fl := NewFleet(servers, -1)
	fl.AdvanceTo(1)
	id := 1
	for k := 0; k < n; k++ {
		v := gen(id)
		i := rng.Intn(len(servers))
		if fl.View().Fits(i, v, fl.View().StartTime(i, v)) {
			if _, err := fl.Commit(i, v); err != nil {
				t.Fatalf("commit: %v", err)
			}
			id++
		}
	}
	return fl
}

// TestCandidatesPrunesOnlyInfeasible is the row's soundness property:
// every answer the row gives alone — accept or reject — is the answer
// the exact window check gives, and the pass's counters add up (every
// server evaluated, row rejections a subset of the infeasible).
func TestCandidatesPrunesOnlyInfeasible(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		servers := make([]model.Server, 0, 10)
		for i := 0; i < 10; i++ {
			servers = append(servers, srv(i+1, float64(4+rng.Intn(8)), float64(8+rng.Intn(16)), 100, 200, float64(rng.Intn(3))))
		}
		fl := loadedFleet(t, rng, servers, 40, func(id int) model.VM {
			v := vm(id, 1+rng.Intn(60), 0, float64(1+rng.Intn(4)), float64(1+rng.Intn(6)))
			v.End = v.Start + rng.Intn(40)
			return v
		})
		fv := fl.View()
		for q := 0; q < 50; q++ {
			v := vm(10_000+q, 1+rng.Intn(80), 0, float64(1+rng.Intn(6)), float64(1+rng.Intn(10)))
			v.End = v.Start + rng.Intn(50)
			var infeasible, rowRejected uint64
			for i := 0; i < fv.NumServers(); i++ {
				start := fv.StartTime(i, v)
				ok, byRow := fv.probe(i, v.Demand.CPU, v.Demand.Mem, start, start+v.Duration()-1)
				if want := exactFits(fv, i, v, start); ok != want {
					t.Fatalf("seed %d: server %d probe = %t (byRow %t), exact check = %t for vm %+v", seed, i, ok, byRow, want, v)
				}
				if !ok {
					infeasible++
					if byRow {
						rowRejected++
					}
				}
			}
			before := fv.ScanCounts()
			(&MinCostPolicy{}).Place(fv, v) //nolint:errcheck // counted either way
			after := fv.ScanCounts()
			got := ScanCounts{after.Evaluated - before.Evaluated, after.Infeasible - before.Infeasible, after.RowRejected - before.RowRejected}
			if want := (ScanCounts{uint64(fv.NumServers()), infeasible, rowRejected}); got != want {
				t.Fatalf("seed %d: pass counted %+v, want %+v", seed, got, want)
			}
		}
	}
}

// TestCandidatesPreservesArgmin pins the determinism contract: the one
// pass over the rows picks exactly the server a scan that prices every
// server from its model.Server and asks only the exact window check
// picks, for both scored policies.
func TestCandidatesPreservesArgmin(t *testing.T) {
	policies := []struct {
		p       Policy
		penalty float64
	}{{&MinCostPolicy{}, 0}, {&DelayAwareMinCostPolicy{PenaltyPerMinute: 50}, 50}}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		servers := make([]model.Server, 0, 12)
		for i := 0; i < 12; i++ {
			servers = append(servers, srv(i+1, float64(4+rng.Intn(6)), float64(8+rng.Intn(8)), 100, 200, 1))
		}
		fl := loadedFleet(t, rng, servers, 60, func(id int) model.VM {
			v := vm(id, 1+rng.Intn(40), 0, float64(1+rng.Intn(3)), float64(1+rng.Intn(5)))
			v.End = v.Start + rng.Intn(30)
			return v
		})
		fv := fl.View()
		for q := 0; q < 40; q++ {
			v := vm(20_000+q, 1+rng.Intn(60), 0, float64(1+rng.Intn(5)), float64(1+rng.Intn(8)))
			v.End = v.Start + rng.Intn(40)
			for _, pc := range policies {
				want := exactMinCost(fv, v, pc.penalty)
				got, err := pc.p.Place(fv, v)
				if err != nil {
					got = -1
				}
				if got != want {
					t.Fatalf("seed %d policy %s vm %+v: exact scan picks %d, the row pass picks %d", seed, pc.p.Name(), v, want, got)
				}
			}
		}
	}
}
