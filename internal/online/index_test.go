package online

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"vmalloc/internal/energy"
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
		if fits(fl.View(), i, v, fl.View().StartTime(i, v)) {
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
// the exact window check gives. And the pass's counters say what it did:
// every server evaluated, each either skipped by the run-cost bound or
// probed, and the probed ones' infeasible and row-rejected counts are
// their probes' answers. The reference walks the servers by (P¹, index)
// and skips a server whose (W_ij, index) is not below the (best exact
// price, index) before it.
func TestCandidatesPrunesOnlyInfeasible(t *testing.T) {
	var bounded uint64
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
		order := make([]int, len(servers))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return servers[order[a]].UnitCPUPower() < servers[order[b]].UnitCPUPower() })
		for q := 0; q < 50; q++ {
			v := vm(10_000+q, 1+rng.Intn(80), 0, float64(1+rng.Intn(6)), float64(1+rng.Intn(10)))
			v.End = v.Start + rng.Intn(50)
			want := ScanCounts{Evaluated: uint64(fv.NumServers())}
			best := -1
			var bestCost float64
			fv.compile() // what the pass runs at its entry, before its first probe
			for _, i := range order {
				start := fv.StartTime(i, v)
				ok, byRow := fv.probe(i, v.Demand.CPU, v.Demand.Mem, start, start+v.Duration()-1)
				if exact := exactFits(fv, i, v, start); ok != exact {
					t.Fatalf("seed %d: server %d probe = %t (byRow %t), exact check = %t for vm %+v", seed, i, ok, byRow, exact, v)
				}
				w := energy.RunCost(fv.Server(i), v)
				switch {
				case best >= 0 && (w > bestCost || w == bestCost && i > best):
					want.Bounded++
				case !ok:
					want.Infeasible++
					if byRow {
						want.RowRejected++
					}
				default:
					if cost := exactPrice(fv, i, v, 0); best < 0 || cost < bestCost || cost == bestCost && i < best {
						best, bestCost = i, cost
					}
				}
			}
			before := fv.ScanCounts()
			(&MinCostPolicy{}).Place(fv, v) //nolint:errcheck // counted either way
			after := fv.ScanCounts()
			got := ScanCounts{after.Evaluated - before.Evaluated, after.Bounded - before.Bounded, after.Infeasible - before.Infeasible, after.RowRejected - before.RowRejected}
			if got != want {
				t.Fatalf("seed %d: pass counted %+v, want %+v", seed, got, want)
			}
			bounded += got.Bounded
		}
	}
	if bounded == 0 {
		t.Fatal("no query let the run-cost bound skip a server")
	}
}

// scoredPolicies are the policies minCostPass serves, at the delay
// penalties the argmin fences check: none, the default, and a heavy one.
var scoredPolicies = []struct {
	p       Policy
	penalty float64
}{
	{&MinCostPolicy{}, 0},
	{&DelayAwareMinCostPolicy{PenaltyPerMinute: 0}, 0},
	{&DelayAwareMinCostPolicy{PenaltyPerMinute: 50}, 50},
	{&DelayAwareMinCostPolicy{PenaltyPerMinute: 300}, 300},
}

// scriptFleet builds the fleet the argmin fences script: head[0] sizes it
// (1–16 servers) and picks its idle timeout, and head[1+i] gives server i
// a Table II type and a transition time of 0–3 minutes. Servers of one
// type share P¹, so equal run costs are common. Two bits of head[0]
// reshape the price classes: 128 makes every server a nudgedServer, which
// puts equal run costs in distinct classes, and 64 makes server 0 a
// type-5, dearer per CU than any other server, so index order and class
// order disagree from the first row. The clock starts at 1.
func scriptFleet(head []byte) *Fleet {
	cat := model.ServerTypeCatalog()
	servers := make([]model.Server, 1+int(head[0])%16)
	for i := range servers {
		b := int(head[1+i])
		servers[i] = cat[b%len(cat)].NewServer(i+1, float64(b/len(cat)%4))
		if head[0]&128 != 0 {
			servers[i] = nudgedServer(i+1, b%len(cat), servers[i].TransitionTime)
		}
	}
	if head[0]&64 != 0 {
		servers[0] = cat[len(cat)-1].NewServer(1, servers[0].TransitionTime)
	}
	fl := NewFleet(servers, []int{-1, 0, 2}[int(head[0])/16%3])
	fl.AdvanceTo(1)
	return fl
}

// nudgedServer is a custom server whose P¹ is (254.6 − 5)/64 ≈ 3.9 plus
// k ulps: PPeak is k ulps above 254.6, and the subtraction and the division
// by 64 are exact. So each k is its own price class, while W =
// P¹·cpu·minutes, rounded twice, often comes out equal across classes.
func nudgedServer(id, k int, transitionTime float64) model.Server {
	return model.Server{
		ID:             id,
		Capacity:       model.Resources{CPU: 64, Mem: 96},
		PIdle:          5,
		PPeak:          math.Float64frombits(math.Float64bits(254.6) + uint64(k)),
		TransitionTime: transitionTime,
	}
}

// scriptVM decodes b[0:3] into a Table I VM with the given ID, starting
// 0–5 minutes after the clock and running 1–40 minutes.
func scriptVM(b []byte, now, id int) model.VM {
	cat := model.VMTypeCatalog()
	start := now + int(b[2])%6
	return model.VM{ID: id, Demand: cat[int(b[0])%len(cat)].Resources(), Start: start, End: start + int(b[1])%40}
}

// scriptOp applies one four-byte op to fl: commit scriptVM(op[1:]) under
// ID id to the server op[0] names when it fits there, release a resident,
// or advance the clock 1–8 minutes.
func scriptOp(tb testing.TB, fl *Fleet, op []byte, id int) {
	tb.Helper()
	switch op[0] % 4 {
	case 0, 1:
		i := int(op[0]/4) % fl.View().NumServers()
		v := scriptVM(op[1:], fl.Now(), id)
		if fits(fl.View(), i, v, fl.View().StartTime(i, v)) {
			if _, err := fl.Commit(i, v); err != nil {
				tb.Fatalf("commit vm %d to server %d: %v", id, i, err)
			}
		}
	case 2:
		if rs := fl.Residents(); len(rs) > 0 {
			if _, err := fl.Release(rs[int(op[1])%len(rs)].VM.ID); err != nil {
				tb.Fatal(err)
			}
		}
	default:
		fl.AdvanceTo(fl.Now() + 1 + int(op[1])%8)
	}
}

// checkArgmin asks every scored policy to place v and fails unless each
// picks exactMinCost's server. It returns the reference's winner, tie
// count and cross-class tie at the largest penalty.
func checkArgmin(tb testing.TB, fv *FleetView, v model.VM) (best, ties int, crossTie bool) {
	tb.Helper()
	for _, pc := range scoredPolicies {
		best, ties, crossTie = exactMinCost(fv, v, pc.penalty)
		got, err := pc.p.Place(fv, v)
		if err != nil {
			got = -1
		}
		if got != best {
			tb.Fatalf("policy %s (penalty %g) vm %+v at clock %d: exact scan picks %d, the row pass picks %d", pc.p.Name(), pc.penalty, v, fv.now, best, got)
		}
	}
	return best, ties, crossTie
}

// TestCandidatesPreservesArgmin pins the determinism contract: the one
// pass over the rows picks exactly the server a scan that prices every
// server from its model.Server and asks only the exact window check
// picks, for both scored policies at penalties 0, 50 and 300. Fleets are
// Table II or nudged servers, with or without a type-5 at index 0, under
// scripted commits, releases and clock moves, and the test fails unless
// the queries met every case the price distinguishes: a sleeping, a
// waking and an active-empty server winning, a future-start VM, a winning
// price shared by several servers, and one shared with a server of a
// cheaper P¹ class than the winner's.
func TestCandidatesPreservesArgmin(t *testing.T) {
	var sleeping, waking, activeEmpty, future, tied, crossTied int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		head := make([]byte, 17)
		rng.Read(head)
		head[0] = byte(16*rng.Intn(3) + 8 + rng.Intn(8)) // 9–16 servers
		head[0] |= byte(seed%4) << 6                     // the class-shaping bits
		fl := scriptFleet(head)
		fv := fl.View()
		op := make([]byte, 4)
		for step := 1; step <= 80; step++ {
			rng.Read(op)
			scriptOp(t, fl, op, step)
			if step%4 != 0 {
				continue
			}
			for q := 0; q < 5; q++ {
				rng.Read(op)
				v := scriptVM(op, fl.Now(), 1_000_000+q)
				best, ties, crossTie := checkArgmin(t, fv, v)
				if v.Start > fl.Now() {
					future++
				}
				if ties > 1 {
					tied++
				}
				if crossTie {
					crossTied++
				}
				if best < 0 {
					continue
				}
				switch fv.StateOf(best) {
				case PowerSaving:
					sleeping++
				case Waking:
					waking++
				case Active:
					if fv.Running(best) == 0 {
						activeEmpty++
					}
				}
			}
		}
	}
	t.Logf("winners: %d sleeping, %d waking, %d active-empty; %d future starts, %d tied minima, %d across classes", sleeping, waking, activeEmpty, future, tied, crossTied)
	if sleeping == 0 || waking == 0 || activeEmpty == 0 || future == 0 || tied == 0 || crossTied == 0 {
		t.Fatal("the scripted fleets missed a case the price distinguishes")
	}
}

// FuzzMinCostPass decodes bytes into a scriptFleet header, a script of
// four-byte ops and a trailing three-byte query VM, and checks that every
// scored policy places the query on exactMinCost's server.
func FuzzMinCostPass(f *testing.F) {
	f.Add([]byte{3, 0, 0, 5, 0, 1, 9, 1, 2, 3, 0, 20, 1, 8, 5, 30, 2, 0, 0, 1})
	f.Add([]byte{40, 1, 6, 11, 16, 21, 0, 0, 4, 7, 9, 30, 0, 8, 6, 10, 1, 3, 4, 2, 0, 0, 12, 2, 1, 0, 5, 25, 3})
	f.Add([]byte{21, 0, 0, 0, 0, 0, 5, 5, 0, 4, 0, 10, 2, 8, 1, 10, 2, 11, 5, 0, 0, 3, 0, 0, 0, 30, 1})
	f.Add([]byte("2x0020008000000x0")) // a sleeping server's α must not enter the bound
	// A type-5 at index 0 wins over feasible servers of cheaper classes.
	f.Add([]byte{0x52, 0x18, 0x39, 0x4f, 0x49, 0x31, 0x62, 0x0c, 0x6a, 0x29, 0x84})
	// Nudged servers: the winner's price is shared by a cheaper class.
	f.Add([]byte{0x93, 0x0b, 0xd6, 0x9a, 0x3a, 0xcd, 0x3e, 0x37, 0xf5, 0xe4, 0xf8, 0xa6, 0xa2, 0x74, 0xb5, 0x8b})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) < 1+1+int(data[0])%16+3 {
			return
		}
		n := 1 + int(data[0])%16
		fl := scriptFleet(data[:1+n])
		script, query := data[1+n:len(data)-3], data[len(data)-3:]
		for k := 0; k+4 <= len(script); k += 4 {
			scriptOp(t, fl, script[k:k+4], 1+k/4)
		}
		checkArgmin(t, fl.View(), scriptVM(query, fl.Now(), 1_000_000))
	})
}
