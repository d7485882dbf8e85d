// Package energy implements the paper's energy cost model: the affine
// server power function (Eq. 1–3), the per-server cost over busy and idle
// segments (Eq. 15–17), the derivation of the optimal activity schedule
// from a placement, and an independent evaluator of the ILP objective
// (Eq. 7–8) used to cross-check every allocator.
//
// All energies are in watt-minutes.
package energy

import (
	"fmt"

	"vmalloc/internal/model"
	"vmalloc/internal/timeline"
)

// RunCost returns W_ij (paper Eq. 3): the energy consumed by running VM v
// on server s over v's whole duration, above the server's idle draw.
func RunCost(s model.Server, v model.VM) float64 {
	return s.UnitCPUPower() * v.Demand.CPU * float64(v.Duration())
}

// SegmentCost returns the activity cost of a server whose busy time is
// exactly the given segment set (Eq. 15 idle-power term + Eq. 16 gap term +
// the initial power-saving→active transition). It excludes the VM run
// costs W_ij, which SegmentCost's callers account separately.
//
// For each interior idle gap of length g the server either stays active
// (PIdle·g) or switches off and back on (α); the cheaper option is charged
// (Eq. 16). A non-empty set is additionally charged one α for the first
// switch-on mandated by y_{i,0}=0 (Eq. 6); switching off after the last
// busy segment is free.
func SegmentCost(s model.Server, busy *timeline.SegmentSet) float64 {
	first, _, ok := busy.Bounds()
	if !ok {
		return 0
	}
	// Merging in a minute the set already covers walks the set as it is.
	return segmentCostWith(s.TransitionCost(), s.PIdle, busy.View(), timeline.Interval{Start: first, End: first})
}

// segmentCostWith is SegmentCost, at transition cost alpha and idle power
// pIdle, of the segments busy (increasing, disjoint, not adjacent) with iv
// merged in; nothing is modified or allocated. MinCost's inner loop: a plain
// walk, no SegmentSet.VisitWith callbacks. The float64 is built in one fixed
// order, the total first and then the gap terms left to right: MinCost
// breaks ties on it.
func segmentCostWith(alpha, pIdle float64, busy []timeline.Interval, iv timeline.Interval) float64 {
	// busy[:lo] end before iv, busy[lo:hi] merge into it, busy[hi:] follow.
	total, lo := 0, 0
	for ; lo < len(busy) && busy[lo].End < iv.Start-1; lo++ {
		total += busy[lo].Len()
	}
	hi := lo
	for ; hi < len(busy) && busy[hi].Start <= iv.End+1; hi++ {
		iv.Start = min(iv.Start, busy[hi].Start)
		iv.End = max(iv.End, busy[hi].End)
	}
	total += iv.Len()
	for _, seg := range busy[hi:] {
		total += seg.Len()
	}
	cost := alpha + pIdle*float64(total)
	for k := 1; k < lo; k++ {
		cost += min(alpha, pIdle*float64(busy[k].Start-busy[k-1].End-1))
	}
	if lo > 0 {
		cost += min(alpha, pIdle*float64(iv.Start-busy[lo-1].End-1))
	}
	prevEnd := iv.End
	for _, seg := range busy[hi:] {
		cost += min(alpha, pIdle*float64(seg.Start-prevEnd-1))
		prevEnd = seg.End
	}
	return cost
}

// ServerState tracks one server's allocation state incrementally: the set
// of busy segments and the accumulated run cost. It supports O(#segments)
// evaluation of the incremental cost of a candidate VM, which is the inner
// loop of the paper's heuristic.
//
// Concurrency: the read path — Cost, CostWith, IncrementalCost, Busy,
// VMs, Clone — never mutates the state (the segment cost of the current
// busy set is cached eagerly by Add, not computed lazily on read), so any
// number of goroutines may evaluate candidates concurrently as long as no
// Add runs at the same time.
type ServerState struct {
	server  model.Server
	busy    timeline.SegmentSet
	runCost float64
	// segCost caches SegmentCost(server, &busy); maintained by Add so
	// Cost is an O(1) pure read.
	segCost float64
	vms     int
}

// NewServerState returns the state of an empty (power-saving) server.
func NewServerState(s model.Server) *ServerState {
	return &ServerState{server: s}
}

// VMs returns the number of VMs placed on the server.
func (st *ServerState) VMs() int { return st.vms }

// Cost returns the server's total energy cost (Eq. 17): run costs plus
// SegmentCost of its busy set.
func (st *ServerState) Cost() float64 {
	return st.runCost + st.segCost
}

// RunCost returns Cost's first term: the W_ij of the VMs placed here.
func (st *ServerState) RunCost() float64 { return st.runCost }

// SegmentCostWith returns SegmentCost of the busy set with iv merged in
// (the state is not modified, and nothing is allocated).
func (st *ServerState) SegmentCostWith(iv timeline.Interval) float64 {
	return segmentCostWith(st.server.TransitionCost(), st.server.PIdle, st.busy.View(), iv)
}

// CostWith returns the server's total cost if v were added (the server
// state is not modified, and nothing is allocated): the float64 a Clone,
// Add and Cost would return.
func (st *ServerState) CostWith(v model.VM) float64 {
	return st.runCost + RunCost(st.server, v) + st.SegmentCostWith(timeline.Interval{Start: v.Start, End: v.End})
}

// BusyGrowth returns the minutes v would add to the server's busy time:
// the part of [v.Start, v.End] no VM already placed here covers.
func (st *ServerState) BusyGrowth(v model.VM) int {
	total := 0
	st.busy.VisitWith(timeline.Interval{Start: v.Start, End: v.End}, func(seg timeline.Interval) {
		total += seg.Len()
	})
	return total - st.busy.Total()
}

// IncrementalCost returns CostWith(v) − Cost(): the heuristic's selection
// key. It is always ≥ RunCost (adding a VM never cheapens a server).
func (st *ServerState) IncrementalCost(v model.VM) float64 {
	return st.CostWith(v) - st.Cost()
}

// Clone returns an independent copy of the state, useful for lookahead
// previews.
func (st *ServerState) Clone() *ServerState {
	c := &ServerState{
		server:  st.server,
		busy:    *st.busy.Clone(),
		runCost: st.runCost,
		segCost: st.segCost,
		vms:     st.vms,
	}
	return c
}

// Add commits v to the server. Not safe to call concurrently with the
// read path (see the type comment).
func (st *ServerState) Add(v model.VM) {
	st.busy.Insert(timeline.Interval{Start: v.Start, End: v.End})
	st.runCost += RunCost(st.server, v)
	st.segCost = SegmentCost(st.server, &st.busy)
	st.vms++
}

// ActiveIntervals returns the optimal activity schedule implied by the
// busy set: the maximal intervals during which the server should be in the
// active state. Interior gaps where α ≥ PIdle·g are bridged (the server
// stays active through them); other gaps switch the server off.
func ActiveIntervals(s model.Server, busy *timeline.SegmentSet) []timeline.Interval {
	segs := busy.Segments()
	if len(segs) == 0 {
		return nil
	}
	alpha := s.TransitionCost()
	active := make([]timeline.Interval, 0, len(segs))
	cur := segs[0]
	for _, seg := range segs[1:] {
		gapLen := float64(seg.Start - cur.End - 1)
		if alpha >= s.PIdle*gapLen {
			// Cheaper (or equal) to stay active through the gap.
			cur.End = seg.End
		} else {
			active = append(active, cur)
			cur = seg
		}
	}
	return append(active, cur)
}

// Breakdown decomposes a total energy cost into the paper's three
// components (§II): VM run cost, active idle cost, and transition cost.
type Breakdown struct {
	Run        float64 `json:"runWattMinutes"`
	Idle       float64 `json:"idleWattMinutes"`
	Transition float64 `json:"transitionWattMinutes"`
}

// Total returns the objective value (Eq. 8).
func (b Breakdown) Total() float64 { return b.Run + b.Idle + b.Transition }

// Add returns the component-wise sum.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		Run:        b.Run + o.Run,
		Idle:       b.Idle + o.Idle,
		Transition: b.Transition + o.Transition,
	}
}

// EvaluateServer computes the exact Eq. 7 cost of one server hosting the
// given VMs, by deriving the optimal activity schedule and accounting each
// component separately. It is independent of ServerState (no incremental
// bookkeeping) and serves as the ground-truth evaluator.
func EvaluateServer(s model.Server, vms []model.VM) Breakdown {
	var b Breakdown
	var busy timeline.SegmentSet
	for _, v := range vms {
		b.Run += RunCost(s, v)
		busy.Insert(timeline.Interval{Start: v.Start, End: v.End})
	}
	active := ActiveIntervals(s, &busy)
	for _, iv := range active {
		b.Idle += s.PIdle * float64(iv.Len())
	}
	b.Transition = s.TransitionCost() * float64(len(active))
	return b
}

// EvaluateObjective computes the exact Eq. 7/8 objective of a placement
// (a map from VM ID to server ID). Every VM must be placed on an existing
// server; otherwise an error is returned. It does not check capacity
// constraints — that is the ILP checker's job (package ilp). Servers are
// summed in inst.Servers order: equal inputs give equal bits.
func EvaluateObjective(inst model.Instance, placement map[int]int) (Breakdown, error) {
	byServer, err := inst.ByServer(placement)
	if err != nil {
		return Breakdown{}, fmt.Errorf("energy: %w", err)
	}
	var total Breakdown
	for i, vms := range byServer {
		if len(vms) > 0 {
			total = total.Add(EvaluateServer(inst.Servers[i], vms))
		}
	}
	return total, nil
}
