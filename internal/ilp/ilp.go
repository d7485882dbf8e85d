// Package ilp realises the paper's exact formulation (§II, Eq. 8–14): the
// boolean integer linear program over placement variables x_ij and
// activity variables y_it. It provides
//
//   - an independent constraint checker for placements (Eq. 9–12),
//   - the LP relaxation of the full model (solved with package lp), whose
//     optimum lower-bounds every placement, and
//   - an exact branch-and-bound solver for small instances, used to
//     measure the heuristic's optimality gap.
package ilp

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"vmalloc/internal/energy"
	"vmalloc/internal/lp"
	"vmalloc/internal/model"
	"vmalloc/internal/timeline"
)

// CheckPlacement verifies a placement against the ILP constraints:
// every VM on exactly one existing server (Eq. 11), and per-time-unit CPU
// and memory capacity on every server (Eq. 9–10). Constraint (12) — VMs
// only on active servers — is implied because the evaluator derives y from
// the busy segments. It returns nil iff the instance is valid and the
// placement is feasible.
func CheckPlacement(inst model.Instance, placement map[int]int) error {
	if err := inst.Validate(); err != nil {
		return err
	}
	byServer, err := inst.ByServer(placement)
	if err != nil {
		return fmt.Errorf("ilp: %w (Eq. 11)", err)
	}
	var use []model.Resources // one horizon of sums, reused server after server
	for i, vms := range byServer {
		use = model.Usage(use, vms)
		if err := checkUsage(inst.Servers[i], use); err != nil {
			return err
		}
	}
	return nil
}

// tol absorbs the rounding of float64 demand sums in the capacity checks.
const tol = 1e-9

// CheckServer checks Eq. 9–10 for server s hosting the (valid) VMs vms: at
// every minute their summed CPU and memory demand stays within capacity.
func CheckServer(s model.Server, vms []model.VM) error {
	return checkUsage(s, model.Usage(nil, vms))
}

// checkUsage checks Eq. 9–10 for server s against its per-minute usage.
func checkUsage(s model.Server, use []model.Resources) error {
	for t, u := range use {
		if u.CPU > s.Capacity.CPU+tol {
			return fmt.Errorf("ilp: server %d CPU over capacity at t=%d: %.3f > %.3f (Eq. 9)",
				s.ID, t, u.CPU, s.Capacity.CPU)
		}
		if u.Mem > s.Capacity.Mem+tol {
			return fmt.Errorf("ilp: server %d memory over capacity at t=%d: %.3f > %.3f (Eq. 10)",
				s.ID, t, u.Mem, s.Capacity.Mem)
		}
	}
	return nil
}

// Fits reports whether v fits server s alongside the placed VMs at every
// minute of v's interval, allocating nothing. For placed VMs CheckServer
// accepts, it agrees with CheckServer(s, append(placed, v)) up to tol.
func Fits(s model.Server, placed []model.VM, v model.VM) bool {
	if !v.Demand.Fits(s.Capacity) {
		return false
	}
	for t := v.Start; t <= v.End; t++ {
		cpu, mem := v.Demand.CPU, v.Demand.Mem
		for _, p := range placed {
			if p.Start <= t && t <= p.End {
				cpu += p.Demand.CPU
				mem += p.Demand.Mem
			}
		}
		if cpu > s.Capacity.CPU+tol || mem > s.Capacity.Mem+tol {
			return false
		}
	}
	return true
}

// Model is the variable layout of the paper's ILP for one instance,
// time-compressed onto uniform segments.
//
// The horizon is partitioned at every VM start and end+1 into maximal
// segments within which the set of active VMs is constant. In any optimal
// ILP solution the activity variables y_it are constant within such a
// segment (a segment is either covered by the server's VMs, or an idle
// gap where staying on is an all-or-nothing decision), so modelling one
// y per segment loses nothing — and shrinks the LP by roughly the mean VM
// length while removing most of its degeneracy.
//
// Variables (boolean in the ILP, relaxed to [0,∞) in the LP):
//
//	x_ij — VM j on server i:                         index XIndex(i, j)
//	y_is — server i active through segment s:        index YIndex(i, s)
//	z_is — transition indicator ≥ (y_is − y_i,s−1)⁺: index ZIndex(i, s)
type Model struct {
	Instance model.Instance
	// Segments are the uniform time segments, in increasing order,
	// tiling [1, last VM end].
	Segments []timeline.Interval
	// NumX, NumY are the variable block sizes.
	NumX, NumY int
}

// BuildModel lays out the variables for the instance.
func BuildModel(inst model.Instance) (*Model, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	segs := uniformSegments(inst.VMs)
	return &Model{
		Instance: inst,
		Segments: segs,
		NumX:     len(inst.Servers) * len(inst.VMs),
		NumY:     len(inst.Servers) * len(segs),
	}, nil
}

// uniformSegments tiles [min start, max end] with maximal segments whose
// active-VM set is constant: breakpoints at every Start and End+1.
func uniformSegments(vms []model.VM) []timeline.Interval {
	points := make(map[int]bool, 2*len(vms))
	maxEnd := 0
	for _, v := range vms {
		points[v.Start] = true
		points[v.End+1] = true
		if v.End > maxEnd {
			maxEnd = v.End
		}
	}
	cuts := make([]int, 0, len(points))
	for p := range points {
		if p <= maxEnd {
			cuts = append(cuts, p)
		}
	}
	sort.Ints(cuts)
	segs := make([]timeline.Interval, 0, len(cuts))
	for k, start := range cuts {
		end := maxEnd
		if k+1 < len(cuts) {
			end = cuts[k+1] - 1
		}
		segs = append(segs, timeline.Interval{Start: start, End: end})
	}
	return segs
}

// NumVars returns the total variable count (x, y and z blocks).
func (m *Model) NumVars() int { return m.NumX + 2*m.NumY }

// XIndex returns the variable index of x_ij for server index i and VM
// index j (positions in the instance slices, not IDs).
func (m *Model) XIndex(i, j int) int { return i*len(m.Instance.VMs) + j }

// YIndex returns the variable index of y_is for segment index s.
func (m *Model) YIndex(i, s int) int { return m.NumX + i*len(m.Segments) + s }

// ZIndex returns the variable index of z_is.
func (m *Model) ZIndex(i, s int) int { return m.NumX + m.NumY + i*len(m.Segments) + s }

// LPRelaxation builds the LP relaxation of Eq. 8–14 over the segment
// variables: the boolean constraints are relaxed to x, y, z ≥ 0 (x ≤ 1 is
// implied by Eq. 11; y and z are cost-bearing, so upper bounds are not
// binding). Its optimum is a lower bound on the optimal placement energy.
func (m *Model) LPRelaxation() lp.Problem {
	inst := m.Instance
	obj := make([]float64, m.NumVars())
	for i, s := range inst.Servers {
		for j, v := range inst.VMs {
			obj[m.XIndex(i, j)] = energy.RunCost(s, v)
		}
		for k, seg := range m.Segments {
			obj[m.YIndex(i, k)] = s.PIdle * float64(seg.Len())
			obj[m.ZIndex(i, k)] = s.TransitionCost()
		}
	}
	// activeIn[k] lists the VM indices active throughout segment k (a VM
	// is active in all of a uniform segment or none of it).
	activeIn := make([][]int, len(m.Segments))
	for k, seg := range m.Segments {
		for j, v := range inst.VMs {
			if v.Start <= seg.Start && seg.End <= v.End {
				activeIn[k] = append(activeIn[k], j)
			}
		}
	}
	var cons []lp.Constraint
	// Eq. 9 and 10: capacity per server per segment with active VMs.
	for i, s := range inst.Servers {
		for k := range m.Segments {
			if len(activeIn[k]) == 0 {
				continue
			}
			cpu := make([]float64, m.NumVars())
			mem := make([]float64, m.NumVars())
			for _, j := range activeIn[k] {
				cpu[m.XIndex(i, j)] = inst.VMs[j].Demand.CPU
				mem[m.XIndex(i, j)] = inst.VMs[j].Demand.Mem
			}
			cpu[m.YIndex(i, k)] = -s.Capacity.CPU
			mem[m.YIndex(i, k)] = -s.Capacity.Mem
			cons = append(cons,
				lp.Constraint{Coeffs: cpu, Sense: lp.LE, RHS: 0},
				lp.Constraint{Coeffs: mem, Sense: lp.LE, RHS: 0},
			)
		}
	}
	// Eq. 11: each VM on exactly one server.
	for j := range inst.VMs {
		row := make([]float64, m.NumVars())
		for i := range inst.Servers {
			row[m.XIndex(i, j)] = 1
		}
		cons = append(cons, lp.Constraint{Coeffs: row, Sense: lp.EQ, RHS: 1})
	}
	// Eq. 12: x_ij ≤ y_is for every segment of the VM's interval.
	for i := range inst.Servers {
		for k := range m.Segments {
			for _, j := range activeIn[k] {
				row := make([]float64, m.NumVars())
				row[m.XIndex(i, j)] = 1
				row[m.YIndex(i, k)] = -1
				cons = append(cons, lp.Constraint{Coeffs: row, Sense: lp.LE, RHS: 0})
			}
		}
	}
	// Transition linearisation: z_is ≥ y_is − y_i,s−1, with y before the
	// first segment = 0.
	for i := range inst.Servers {
		for k := range m.Segments {
			row := make([]float64, m.NumVars())
			row[m.ZIndex(i, k)] = 1
			row[m.YIndex(i, k)] = -1
			if k > 0 {
				row[m.YIndex(i, k-1)] = 1
			}
			cons = append(cons, lp.Constraint{Coeffs: row, Sense: lp.GE, RHS: 0})
		}
	}
	return lp.Problem{NumVars: m.NumVars(), Objective: obj, Constraints: cons}
}

// LowerBound solves the LP relaxation and returns its optimum, a valid
// lower bound on every feasible placement's energy. If the simplex stalls
// on the (heavily tied) exact problem it retries on a slightly relaxed
// copy — relaxation only enlarges the feasible region, so the retried
// value is still a valid (marginally weaker) bound.
func (m *Model) LowerBound() (float64, error) {
	p := m.LPRelaxation()
	sol, err := lp.Solve(p)
	if errors.Is(err, lp.ErrIterationLimit) {
		sol, err = lp.Solve(p.RelaxBy(1e-6))
	}
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("ilp: relaxation is %v", sol.Status)
	}
	return sol.Objective, nil
}

// Stats reports the work a branch-and-bound solve performed.
type Stats struct {
	Nodes  int `json:"nodes"`
	Pruned int `json:"pruned"`
}

// ErrNodeLimit is returned when the search exceeded MaxNodes.
var ErrNodeLimit = fmt.Errorf("ilp: node limit exceeded")

// BranchAndBound is an exact solver for small instances. It branches on
// VMs in start-time order, assigning each to every feasible server, and
// prunes with the bound
//
//	cost(partial) + Σ_{unassigned j} min_i W_ij,
//
// which is valid because the per-server cost (Eq. 17) is monotone
// non-decreasing under VM addition.
type BranchAndBound struct {
	// MaxNodes caps the search size; 0 means DefaultMaxNodes.
	MaxNodes int
}

// DefaultMaxNodes bounds the search for safety; ~4^8 instances fit well
// inside it.
const DefaultMaxNodes = 5_000_000

type bbState struct {
	inst     model.Instance
	vms      []model.VM // in start-time order
	perSrv   [][]model.VM
	srvCost  []float64 // Eq. 17 cost of each server's current VM set
	minRun   []float64 // per sorted-VM minimal run cost over all servers
	restMin  []float64 // suffix sums of minRun
	best     float64
	bestAsg  []int // sorted-VM index -> server index
	curAsg   []int
	maxNodes int
	stats    Stats
	ctx      context.Context
}

// Solve finds a provably optimal placement. The instance must be small;
// the search is exponential in the VM count.
func (b *BranchAndBound) Solve(ctx context.Context, inst model.Instance) (map[int]int, float64, Stats, error) {
	if err := inst.Validate(); err != nil {
		return nil, 0, Stats{}, err
	}
	maxNodes := b.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	vms := sortByStart(inst.VMs)
	st := &bbState{
		inst:     inst,
		vms:      vms,
		perSrv:   make([][]model.VM, len(inst.Servers)),
		srvCost:  make([]float64, len(inst.Servers)),
		minRun:   make([]float64, len(vms)),
		restMin:  make([]float64, len(vms)+1),
		bestAsg:  nil,
		curAsg:   make([]int, len(vms)),
		maxNodes: maxNodes,
		ctx:      ctx,
	}
	for j, v := range vms {
		mn := -1.0
		for _, s := range inst.Servers {
			if !v.Demand.Fits(s.Capacity) {
				continue
			}
			w := energy.RunCost(s, v)
			if mn < 0 || w < mn {
				mn = w
			}
		}
		if mn < 0 {
			return nil, 0, Stats{}, fmt.Errorf("ilp: vm %d fits no server", v.ID)
		}
		st.minRun[j] = mn
	}
	for j := len(vms) - 1; j >= 0; j-- {
		st.restMin[j] = st.restMin[j+1] + st.minRun[j]
	}
	// Incumbent: +inf until the search finds the first full assignment.
	st.best = -1

	if err := st.search(0, 0); err != nil {
		return nil, 0, st.stats, err
	}
	if st.bestAsg == nil {
		return nil, 0, st.stats, fmt.Errorf("ilp: no feasible placement")
	}
	placement := make(map[int]int, len(vms))
	for j, i := range st.bestAsg {
		placement[vms[j].ID] = inst.Servers[i].ID
	}
	return placement, st.best, st.stats, nil
}

func (st *bbState) search(j int, costSoFar float64) error {
	if st.stats.Nodes >= st.maxNodes {
		return ErrNodeLimit
	}
	if err := st.ctx.Err(); err != nil {
		return err
	}
	st.stats.Nodes++
	if j == len(st.vms) {
		if st.best < 0 || costSoFar < st.best {
			st.best = costSoFar
			st.bestAsg = append(st.bestAsg[:0], st.curAsg...)
		}
		return nil
	}
	if st.best >= 0 && costSoFar+st.restMin[j] >= st.best-1e-9 {
		st.stats.Pruned++
		return nil
	}
	v := st.vms[j]
	// Symmetry breaking: identical servers that are both still empty are
	// interchangeable; trying the first is enough.
	seenEmpty := make(map[serverKey]bool, 2)
	for i, s := range st.inst.Servers {
		if len(st.perSrv[i]) == 0 {
			k := keyOf(s)
			if seenEmpty[k] {
				st.stats.Pruned++
				continue
			}
			seenEmpty[k] = true
		}
		if !Fits(s, st.perSrv[i], v) {
			continue
		}
		newCost := serverCost(s, append(st.perSrv[i], v))
		delta := newCost - st.srvCost[i]
		oldCost := st.srvCost[i]
		st.perSrv[i] = append(st.perSrv[i], v)
		st.srvCost[i] = newCost
		st.curAsg[j] = i
		if err := st.search(j+1, costSoFar+delta); err != nil {
			return err
		}
		st.perSrv[i] = st.perSrv[i][:len(st.perSrv[i])-1]
		st.srvCost[i] = oldCost
	}
	return nil
}

// serverKey identifies interchangeable servers (same capacities and power
// parameters).
type serverKey struct {
	cpu, mem, pIdle, pPeak, trans float64
}

func keyOf(s model.Server) serverKey {
	return serverKey{s.Capacity.CPU, s.Capacity.Mem, s.PIdle, s.PPeak, s.TransitionTime}
}

func serverCost(s model.Server, vms []model.VM) float64 {
	return energy.EvaluateServer(s, vms).Total()
}

func sortByStart(vms []model.VM) []model.VM {
	out := make([]model.VM, len(vms))
	copy(out, vms)
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && less(out[k], out[k-1]); k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

func less(a, b model.VM) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.ID < b.ID
}
