package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"vmalloc/internal/energy"
	"vmalloc/internal/model"
)

func TestLookaheadValidAndVerified(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		inst := randomInstance(rng, 40, 15)
		res, err := NewLookahead().Allocate(context.Background(), inst)
		if err != nil {
			continue // dense draws may be infeasible; covered elsewhere
		}
		if len(res.Placement) != len(inst.VMs) {
			t.Fatalf("placed %d of %d", len(res.Placement), len(inst.VMs))
		}
		want, err := energy.EvaluateObjective(inst, res.Placement)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Energy.Total()-want.Total()) > 1e-9 {
			t.Fatalf("energy mismatch: %g vs %g", res.Energy.Total(), want.Total())
		}
	}
}

func TestLookaheadName(t *testing.T) {
	if got := NewLookahead().Name(); got != "MinCost/lookahead" {
		t.Errorf("Name = %q", got)
	}
}

func TestLookaheadSeesAPairGreedyMisses(t *testing.T) {
	// Construct a trap for the greedy rule: VM A (small) arrives first,
	// then VM B (large). Server 1 is slightly cheaper for A alone, but
	// only server 2 can host both A and B together; placing A on server 1
	// forces B to activate server 2 anyway, paying two activations.
	inst := model.NewInstance(
		[]model.VM{
			vm(1, 1, 20, 2, 2), // A
			vm(2, 1, 20, 9, 9), // B: only fits server 2 with A elsewhere, or with A on server 2 it shares
		},
		[]model.Server{
			srv(1, 4, 8, 50, 110, 1),   // cheap small: A fits, B does not
			srv(2, 12, 16, 90, 200, 1), // big: fits A+B together
		},
	)
	greedy, err := NewMinCost().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	look, err := NewLookahead().Allocate(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if look.Energy.Total() > greedy.Energy.Total()+1e-9 {
		t.Errorf("lookahead (%g) worse than greedy (%g)",
			look.Energy.Total(), greedy.Energy.Total())
	}
	if look.Placement[1] != 2 || look.Placement[2] != 2 {
		t.Errorf("lookahead should co-locate the pair on server 2: %v", look.Placement)
	}
}

func TestLookaheadNeverMuchWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var greedySum, lookSum float64
	trials := 0
	for trials < 8 {
		inst := randomInstance(rng, 50, 18)
		g, err1 := NewMinCost().Allocate(context.Background(), inst)
		l, err2 := NewLookahead().Allocate(context.Background(), inst)
		if err1 != nil || err2 != nil {
			continue
		}
		greedySum += g.Energy.Total()
		lookSum += l.Energy.Total()
		trials++
	}
	// One-step lookahead is not guaranteed to dominate, but across seeds
	// it must not be more than a few percent worse in aggregate.
	if lookSum > greedySum*1.05 {
		t.Errorf("lookahead aggregate %g vs greedy %g (> +5%%)", lookSum, greedySum)
	}
	t.Logf("aggregate: greedy %.0f, lookahead %.0f (%.2f%%)",
		greedySum, lookSum, 100*(lookSum/greedySum-1))
}

func TestLookaheadUnplaceable(t *testing.T) {
	inst := model.NewInstance(
		[]model.VM{vm(1, 1, 5, 100, 1)},
		[]model.Server{srv(1, 10, 16, 80, 160, 1)},
	)
	if _, err := NewLookahead().Allocate(context.Background(), inst); err == nil {
		t.Error("want error")
	}
	if _, err := NewLookahead().Allocate(context.Background(), model.Instance{}); err == nil {
		t.Error("want error for invalid instance")
	}
}

// refLookahead is Lookahead's rule as it stood while it was quadratic: for
// every candidate server a fresh minimum, over the whole fleet, of what the
// next VM would then cost. It is the reference lookaheadScore is held to,
// and counts the two branches the table has to reach.
type refLookahead struct {
	penalties    int // candidates under which the next VM fits nowhere
	selfCheapest int // candidates that are themselves the next VM's cheapest server
}

func (r *refLookahead) score(fleet *Fleet, rest []model.VM) func(i int) (float64, bool) {
	v := rest[0]
	return func(i int) (float64, bool) {
		if !fleet.Fits(i, v) {
			return 0, false
		}
		score := fleet.State(i).IncrementalCost(v)
		if len(rest) > 1 {
			score += r.bestNextCost(fleet, i, v, rest[1])
		}
		return score, true
	}
}

func (r *refLookahead) bestNextCost(fleet *Fleet, chosen int, v, next model.VM) float64 {
	best, bestAt := -1.0, -1
	cheapestBefore, cheapestBeforeAt := -1.0, -1 // with v placed nowhere
	for i := range fleet.Servers {
		var (
			inc float64
			ok  bool
		)
		if fleet.Fits(i, next) {
			if c := fleet.State(i).IncrementalCost(next); cheapestBeforeAt < 0 || c < cheapestBefore {
				cheapestBefore, cheapestBeforeAt = c, i
			}
		}
		if i == chosen {
			inc, ok = previewPairCost(fleet, i, v, next)
		} else if fleet.Fits(i, next) {
			inc, ok = fleet.State(i).IncrementalCost(next), true
		}
		if ok && (best < 0 || inc < best) {
			best, bestAt = inc, i
		}
	}
	if cheapestBeforeAt == chosen && bestAt != chosen {
		r.selfCheapest++
	}
	if best < 0 {
		r.penalties++
		return 1e18
	}
	return best
}

// lookaheadInstances is passInstances trimmed to 120 VMs (the reference is
// quadratic in the fleet) plus two hand-built fleets: one where a branch
// leaves the next VM unplaceable, one where the next VM's cheapest server
// is the candidate, which cannot hold the pair.
func lookaheadInstances() map[string]model.Instance {
	out := passInstances()
	for name, inst := range out {
		if len(inst.VMs) > 120 {
			out[name] = model.NewInstance(inst.VMs[:120], inst.Servers)
		}
	}
	out["penalty"] = model.NewInstance(
		[]model.VM{vm(1, 1, 20, 2, 2), vm(2, 1, 20, 9, 9)}, // the second fits the big server only, and only alone
		[]model.Server{srv(1, 4, 8, 50, 110, 1), srv(2, 10, 16, 90, 200, 1)},
	)
	out["second-cheapest"] = model.NewInstance(
		[]model.VM{vm(1, 1, 20, 3, 3), vm(2, 1, 25, 3, 3)}, // no server holds both
		[]model.Server{srv(1, 4, 8, 50, 110, 1), srv(2, 5, 16, 90, 200, 1), srv(3, 5, 16, 95, 230, 2)},
	)
	return out
}

// TestLookaheadMatchesQuadraticRule holds lookaheadScore to the quadratic
// rule above: VM by VM the same server index and the same bits in the
// winning score, and Lookahead.Allocate, which reaches it through Run, to
// the same placement.
func TestLookaheadMatchesQuadraticRule(t *testing.T) {
	var penalties, selfCheapest int
	for name, inst := range lookaheadInstances() {
		t.Run(name, func(t *testing.T) {
			var reference refLookahead
			ref, got := newTestScan(inst), newTestScan(inst)
			wantPlacement := map[int]int{}
			var wantUnplaceable *model.VM
			vms := SortVMsByStart(inst)
			for k, v := range vms {
				ref.Fleet.advance(v.Start)
				got.Fleet.advance(v.Start)
				refEval, gotEval := reference.score(ref.Fleet, vms[k:]), lookaheadScore(got.Fleet, vms[k:])
				want, err := ref.ArgMin(refEval)
				if err != nil {
					t.Fatal(err)
				}
				i, err := got.ArgMin(gotEval)
				if err != nil {
					t.Fatal(err)
				}
				if want < 0 {
					if i >= 0 {
						t.Fatalf("vm %d: the rule picks server index %d, the reference none", v.ID, i)
					}
					wantUnplaceable = &v
					break
				}
				wantScore, _ := refEval(want)
				var score float64
				if i >= 0 {
					score, _ = gotEval(i)
				}
				if i != want || math.Float64bits(score) != math.Float64bits(wantScore) {
					t.Fatalf("vm %d: the rule picks server index %d at %v (%#x), the reference %d at %v (%#x)",
						v.ID, i, score, math.Float64bits(score), want, wantScore, math.Float64bits(wantScore))
				}
				ref.Fleet.Commit(want, v)
				got.Fleet.Commit(i, v)
				wantPlacement[v.ID] = inst.Servers[want].ID
			}
			penalties += reference.penalties
			selfCheapest += reference.selfCheapest
			switch name {
			case "penalty":
				if reference.penalties == 0 {
					t.Error("no branch left the next VM unplaceable")
				}
			case "second-cheapest":
				if reference.selfCheapest == 0 {
					t.Error("no candidate was the next VM's cheapest server")
				}
			}

			res, err := NewLookahead().Allocate(context.Background(), inst)
			var unplaceable *UnplaceableError
			if errors.As(err, &unplaceable) {
				if wantUnplaceable == nil || wantUnplaceable.ID != unplaceable.VM.ID {
					t.Fatalf("Allocate: %v; the reference stops at %v", err, wantUnplaceable)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if wantUnplaceable != nil {
				t.Fatalf("Allocate placed every VM; the reference fits vm %d nowhere", wantUnplaceable.ID)
			}
			for _, v := range inst.VMs {
				if got, want := res.Placement[v.ID], wantPlacement[v.ID]; got != want {
					t.Errorf("vm %d on server %d, the reference says %d", v.ID, got, want)
				}
			}
		})
	}
	t.Logf("over the table: %d penalised branches, %d candidates that were the next VM's cheapest server", penalties, selfCheapest)
}
