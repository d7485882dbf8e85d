// Package core implements the paper's primary contribution: the
// minimum-incremental-energy-cost VM allocation heuristic (§III).
//
// VMs are allocated in increasing order of start time. For each VM the
// allocator computes the subset of servers with sufficient spare CPU and
// memory throughout the VM's time interval, evaluates the incremental
// energy cost (Eq. 17) of placing the VM on each, and commits it to the
// server with the minimum increment.
//
// That order is spelled once, in Run: every offline allocator of this
// module and of package baseline is a rule Run asks for a server, VM by
// VM, and Fleet — the state the rules read — relies on it (see Fleet).
// A rule scans the candidates on the calling goroutine: MinCost as one pass
// over the fleet's rows, the others through Scan's two loops (engine.go).
// All Allocate methods take a context.Context and return ctx.Err() promptly
// when it is cancelled.
package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"vmalloc/internal/energy"
	"vmalloc/internal/model"
	"vmalloc/internal/timeline"
)

// Allocator places every VM of an instance on a server.
type Allocator interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Allocate places every VM of the instance. The instance is not
	// modified. Implementations must be deterministic given their
	// construction parameters, must respect ctx cancellation (returning
	// ctx.Err() promptly without leaking goroutines), and must not leave
	// partial results behind on error.
	Allocate(ctx context.Context, inst model.Instance) (*Result, error)
}

// Result is a complete placement with its exact energy accounting.
type Result struct {
	// Allocator is the name of the algorithm that produced the placement.
	Allocator string `json:"allocator"`
	// Placement maps VM ID to server ID.
	Placement map[int]int `json:"placement"`
	// Energy is the exact Eq. 7 objective breakdown of the placement.
	Energy energy.Breakdown `json:"energy"`
	// ServersUsed is the number of servers hosting at least one VM.
	ServersUsed int `json:"serversUsed"`
	// Stats records the run's observability counters (nil when the
	// allocator does not collect them).
	Stats *AllocStats `json:"stats,omitempty"`
}

// UnplaceableError reports a VM for which no server had sufficient spare
// resources throughout its interval.
type UnplaceableError struct {
	VM model.VM
}

func (e *UnplaceableError) Error() string {
	return fmt.Sprintf("core: vm %d (demand %v, interval [%d,%d]) fits no server",
		e.VM.ID, e.VM.Demand, e.VM.Start, e.VM.End)
}

// Config is the resolved set of allocator constructor options. Every
// constructor in this module and in package baseline accepts the same
// Option values; options that do not apply to an allocator are ignored
// (WithSeed on MinCost, for example).
type Config struct {
	// TransitionAware selects the full Eq. 17 incremental cost; false
	// degrades MinCost to the run-cost-only ablation. Default true.
	TransitionAware bool
	// MemoryCheck enables the memory feasibility constraint (Eq. 10).
	// Default true.
	MemoryCheck bool
	// Seed drives the randomised allocators (FFPS, RandomFit).
	// Default 1.
	Seed int64
}

// DefaultConfig returns the constructor defaults documented on Config.
func DefaultConfig() Config {
	return Config{TransitionAware: true, MemoryCheck: true, Seed: 1}
}

// NewConfig applies opts on top of DefaultConfig.
func NewConfig(opts ...Option) Config {
	c := DefaultConfig()
	for _, o := range opts {
		o.apply(&c)
	}
	return c
}

// Option configures an allocator constructor. Options are shared across
// allocators; each constructor documents which fields it reads.
type Option interface {
	apply(*Config)
}

type optionFunc func(*Config)

func (f optionFunc) apply(c *Config) { f(c) }

// WithSeed sets the seed of the randomised allocators (FFPS's per-request
// server search order, RandomFit's server draw). The default seed is 1.
func WithSeed(seed int64) Option {
	return optionFunc(func(c *Config) { c.Seed = seed })
}

// WithoutTransitionAwareness makes the allocator ignore transition and idle
// costs and select servers by run cost W_ij alone. Ablation variant; not in
// the paper.
func WithoutTransitionAwareness() Option {
	return optionFunc(func(c *Config) { c.TransitionAware = false })
}

// WithoutMemoryCheck drops the memory feasibility constraint (Eq. 10).
// Ablation variant; not in the paper — its placements can violate memory
// capacity and are rejected by the ILP checker, which is the point of the
// ablation.
func WithoutMemoryCheck() Option {
	return optionFunc(func(c *Config) { c.MemoryCheck = false })
}

// Fleet is the per-server allocation state the placement rules read: who
// is resident, for feasibility, and the energy states, for cost.
//
// It relies on the order Run commits in. Every commit starts at or after
// the one before it (the frontier), so from minute t ≥ frontier on a
// server's usage can only fall as residents end: the maximum over a window
// [t, end] is the usage at t, and the usage at t is the sum over the
// residents still running then. A server therefore keeps only its claims
// (end, cpu, mem) alive at its last commit, a handful, instead of a usage
// profile over the horizon. The order is checked, not assumed: a commit or
// a probe before the frontier panics.
//
// That sum is kept in a row per server, right until the first claim it
// counted ends, so a probe at the frontier is a read; Run refreshes the
// stale rows as it advances the frontier to each VM's start.
//
// The rows are grouped into classes of twins, servers of the same capacity,
// P¹, P_idle and α. A class keeps its never-used rows, which price any VM
// alike, in index order, and its used rows by CPU in use, the order in
// which MinCost's pass refuses them.
//
// A probe past what a row covers (Lookahead's next VM) sums the claims and
// keeps nothing. A Fleet is for one goroutine: Run scans and commits on the
// caller's.
type Fleet struct {
	Servers  []model.Server
	frontier int // start minute of the VM being placed, or of the latest commit
	rows     []row
	claims   [][]claim // per server, in commit order
	state    []energy.ServerState
	classes  []class
	staleAt  int // no used row is stale at or before this minute
}

// row is what a scan reads of one server: constants NewFleet writes, the
// cost terms Commit copies from the energy state, and the usage advance and
// Commit refresh.
type row struct {
	capCPU, capMem   float64
	p1, pIdle, alpha float64 // UnitCPUPower (Eq. 2), PIdle, TransitionCost
	runCost, cost    float64 // the state's RunCost() and Cost()
	empty            bool    // no VM placed yet
	class            int     // index in Fleet.classes
	// cpu and mem are the usage at every minute from the frontier to
	// validTo, the earliest end among the claims counted (none: forever).
	cpu, mem float64
	validTo  int
}

// class is one set of twin rows: never-used in ascending index, used by
// (cpu, index).
type class struct {
	unused, used []int
}

// claim is a committed VM's hold on its server up to minute end.
type claim struct {
	end      int
	cpu, mem float64
}

// NewFleet builds the empty allocation state for the instance's servers.
func NewFleet(inst model.Instance) *Fleet {
	f := &Fleet{
		Servers: inst.Servers,
		rows:    make([]row, len(inst.Servers)),
		claims:  make([][]claim, len(inst.Servers)),
		state:   make([]energy.ServerState, len(inst.Servers)),
		staleAt: math.MaxInt,
	}
	type twin struct{ capCPU, capMem, p1, pIdle, alpha float64 }
	classOf := map[twin]int{}
	for i, s := range inst.Servers {
		f.state[i] = *energy.NewServerState(s)
		f.rows[i] = row{
			capCPU: s.Capacity.CPU, capMem: s.Capacity.Mem,
			p1: s.UnitCPUPower(), pIdle: s.PIdle, alpha: s.TransitionCost(),
			validTo: math.MaxInt, empty: true,
		}
		r := &f.rows[i]
		key := twin{r.capCPU, r.capMem, r.p1, r.pIdle, r.alpha}
		c, ok := classOf[key]
		if !ok {
			c = len(f.classes)
			classOf[key] = c
			f.classes = append(f.classes, class{})
		}
		r.class = c
		f.classes[c].unused = append(f.classes[c].unused, i)
	}
	return f
}

// byLoad orders a class's used rows: by CPU in use, then by index.
func (f *Fleet) byLoad(a, b int) int {
	if ca, cb := f.rows[a].cpu, f.rows[b].cpu; ca != cb {
		return int(math.Copysign(1, ca-cb))
	}
	return a - b
}

// sum adds up server index i's claims still running at minute t, and
// returns with the usage the end of the first of them to go.
func (f *Fleet) sum(i, t int) (cpu, mem float64, validTo int) {
	claims := f.claims[i]
	validTo = math.MaxInt
	// Newest claim first, on purpose. Catalog demands are not dyadic, and
	// some probes of the evaluation are exact fills where the order of the
	// additions decides: 34.2+1.7+1.7+7.5+1.7+15 GB resident, summed oldest
	// first, leaves 34.2 GB on a 96 GB server one ulp short. This is the
	// order under which `vmsim -exp all` regenerates results_full.txt;
	// TestFleetExactFill holds that case.
	for k := len(claims) - 1; k >= 0; k-- {
		if c := &claims[k]; c.end >= t {
			cpu += c.cpu
			mem += c.mem
			validTo = min(validTo, c.end)
		}
	}
	return cpu, mem, validTo
}

// usage returns server index i's CPU and memory in use at minute t, which
// is also its maximum over any window starting at t (see Fleet): the row's
// sum while it covers t, a fresh one, not kept, past it.
func (f *Fleet) usage(i, t int) (cpu, mem float64) {
	if t < f.frontier {
		panic(fmt.Sprintf("core: probe at minute %d, before the commit frontier %d", t, f.frontier))
	}
	if r := &f.rows[i]; t <= r.validTo {
		return r.cpu, r.mem
	}
	cpu, mem, _ = f.sum(i, t)
	return cpu, mem
}

// advance moves the frontier to minute t and sums afresh the rows a claim
// has ended on, so probes at t are reads. A claim's end stales its row
// once: over a run this costs what the commits do. Until t passes staleAt
// no row is stale and nothing is walked; past it, each class's used rows
// are walked once, and a re-summed row, whose CPU has only fallen, moves
// toward the front of its class.
func (f *Fleet) advance(t int) {
	if t < f.frontier {
		panic(fmt.Sprintf("core: advance to minute %d, before the commit frontier %d", t, f.frontier))
	}
	f.frontier = t
	if t <= f.staleAt {
		return
	}
	f.staleAt = math.MaxInt
	for c := range f.classes {
		used := f.classes[c].used
		for k, i := range used {
			r := &f.rows[i]
			if r.validTo < t {
				// The claims summed are a subset of those summed before,
				// in the same order: the sum cannot have grown.
				r.cpu, r.mem, r.validTo = f.sum(i, t)
				for ; k > 0 && f.byLoad(i, used[k-1]) < 0; k-- {
					used[k] = used[k-1]
				}
				used[k] = i
			}
			f.staleAt = min(f.staleAt, r.validTo)
		}
	}
}

// Fits reports whether server index i has sufficient spare CPU and memory
// for v throughout [v.Start, v.End]. The comparisons are strict: a
// tolerance admits fills the exact arithmetic refuses.
func (f *Fleet) Fits(i int, v model.VM) bool {
	cpu, mem := f.usage(i, v.Start)
	return cpu+v.Demand.CPU <= f.rows[i].capCPU && mem+v.Demand.Mem <= f.rows[i].capMem
}

// State returns server index i's energy state.
func (f *Fleet) State(i int) *energy.ServerState { return &f.state[i] }

// SpareCPU returns server index i's minimum spare CPU from minute t on.
func (f *Fleet) SpareCPU(i, t int) float64 {
	cpu, _ := f.usage(i, t)
	return f.rows[i].capCPU - cpu
}

// SpareMem returns server index i's minimum spare memory from minute t on.
func (f *Fleet) SpareMem(i, t int) float64 {
	_, mem := f.usage(i, t)
	return f.rows[i].capMem - mem
}

// Commit places v on server index i. v must not start before the previous
// commit did.
func (f *Fleet) Commit(i int, v model.VM) {
	if v.Start < f.frontier {
		panic(fmt.Sprintf("core: commit of vm %d at minute %d, before the commit frontier %d", v.ID, v.Start, f.frontier))
	}
	f.frontier = v.Start
	alive := slices.DeleteFunc(f.claims[i], func(c claim) bool { return c.end < v.Start })
	f.claims[i] = append(alive, claim{end: v.End, cpu: v.Demand.CPU, mem: v.Demand.Mem})
	st, r, cl := &f.state[i], &f.rows[i], &f.classes[f.rows[i].class]
	if r.empty {
		k, _ := slices.BinarySearch(cl.unused, i)
		cl.unused = slices.Delete(cl.unused, k, k+1)
	} else {
		k, _ := slices.BinarySearchFunc(cl.used, i, f.byLoad)
		cl.used = slices.Delete(cl.used, k, k+1)
	}
	st.Add(v)
	r.runCost, r.cost, r.empty = st.RunCost(), st.Cost(), false
	r.cpu, r.mem, r.validTo = f.sum(i, v.Start)
	k, _ := slices.BinarySearchFunc(cl.used, i, f.byLoad)
	cl.used = slices.Insert(cl.used, k, i)
	f.staleAt = min(f.staleAt, r.validTo)
}

// ServersUsed returns the number of servers with at least one VM.
func (f *Fleet) ServersUsed() int {
	var used int
	for i := range f.state {
		if f.state[i].VMs() > 0 {
			used++
		}
	}
	return used
}

// SortVMsByStart returns the instance's VMs ordered by (start time, ID) —
// the arrival order every allocator in the paper processes.
func SortVMsByStart(inst model.Instance) []model.VM {
	vms := slices.Clone(inst.VMs)
	slices.SortFunc(vms, func(a, b model.VM) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.ID, b.ID))
	})
	return vms
}

// Scan is what a placement rule is handed: the fleet as committed so far
// and the two scan loops, bound to the run's context and statistics.
type Scan struct {
	Fleet *Fleet
	ctx   context.Context
	stats *AllocStats
}

// ArgMin is argmin over the fleet's servers.
func (s *Scan) ArgMin(eval func(i int) (float64, bool)) (int, error) {
	return argmin(s.ctx, s.stats, len(s.Fleet.Servers), eval)
}

// First is first over the fleet's servers, visited in whatever order the
// rule maps positions 0..n-1 to.
func (s *Scan) First(feasible func(k int) bool) (int, error) {
	return first(s.ctx, s.stats, len(s.Fleet.Servers), feasible)
}

// Run is the placement loop of every offline allocator: validate the
// instance, take its VMs in (start, ID) order, ask rule for a server for
// each and commit it there, then price the placement with the independent
// evaluator. rest[0] is the VM to place and rest[1:] those still to come,
// in order; rule returns a fleet server index, or -1 when the VM fits
// nowhere. A rule reads s.Fleet and never commits: that the commits arrive
// in start order is decided here and nowhere else, and Fleet relies on it.
func Run(ctx context.Context, name string, inst model.Instance, rule func(s *Scan, rest []model.VM) (int, error)) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	fleet := NewFleet(inst)
	s := &Scan{Fleet: fleet, ctx: ctx, stats: &AllocStats{WorkerUtilization: 1}}
	placement := make(map[int]int, len(inst.VMs))
	vms := SortVMsByStart(inst)
	for k, v := range vms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fleet.advance(v.Start)
		i, err := rule(s, vms[k:])
		if err != nil {
			return nil, err
		}
		if i < 0 {
			return nil, &UnplaceableError{VM: v}
		}
		committing := time.Now()
		fleet.Commit(i, v)
		s.stats.CommitWall += time.Since(committing)
		s.stats.VMsPlaced++
		placement[v.ID] = fleet.Servers[i].ID
	}
	// The independent evaluator re-derives the exact objective, so a
	// bookkeeping bug in a rule or in the fleet cannot go unnoticed.
	breakdown, err := energy.EvaluateObjective(inst, placement)
	if err != nil {
		return nil, err
	}
	s.stats.TotalWall = time.Since(start)
	return &Result{Allocator: name, Placement: placement, Energy: breakdown,
		ServersUsed: fleet.ServersUsed(), Stats: s.stats}, nil
}

// MinCost is the paper's heuristic allocator.
type MinCost struct {
	cfg Config
}

var _ Allocator = (*MinCost)(nil)

// NewMinCost returns the paper's heuristic allocator. It honours
// WithoutTransitionAwareness and WithoutMemoryCheck; by default it is fully
// transition-aware and memory-checked.
func NewMinCost(opts ...Option) *MinCost {
	return &MinCost{cfg: NewConfig(opts...)}
}

// Name implements Allocator.
func (m *MinCost) Name() string {
	switch {
	case !m.cfg.TransitionAware:
		return "MinCost/no-transition"
	case !m.cfg.MemoryCheck:
		return "MinCost/no-memory"
	default:
		return "MinCost"
	}
}

// Allocate implements Allocator. Ties on incremental cost break toward the
// lower server index, making the algorithm fully deterministic.
func (m *MinCost) Allocate(ctx context.Context, inst model.Instance) (*Result, error) {
	return Run(ctx, m.Name(), inst, func(s *Scan, rest []model.VM) (int, error) {
		i, _, err := s.minCostPass(rest[0], m.cfg.MemoryCheck, m.cfg.TransitionAware)
		return i, err
	})
}

// minCostPass is the paper's rule and its two ablations as one pass over
// the fleet's classes: every server v fits (Eq. 9, and Eq. 10 when
// memoryCheck) is priced at its Eq. 17 increment — at W_ij alone when not
// transitionAware — and the least (price, index) wins, the server a strict
// < in index order picks. It returns that index, -1 when v fits nowhere,
// and the price, and counts what Scan.ArgMin would: every pair considered,
// every one refused. It reads a class's first never-used row for all its
// twins, then its used rows up to the first v's CPU overflows, checking
// the context every cancelCheckEvery rows read (DESIGN.md "Offline fleet
// state"). The increment is CostWith(v) − Cost() with every float built in
// ServerState's order: (runCost + W_ij) + segment cost with v, minus
// (runCost + segment cost).
func (s *Scan) minCostPass(v model.VM, memoryCheck, transitionAware bool) (int, float64, error) {
	scanStart := time.Now()
	f := s.Fleet
	f.advance(v.Start) // a read when Run has advanced to v.Start
	cpu, mem := v.Demand.CPU, v.Demand.Mem
	minutes := float64(v.Duration())
	iv := timeline.Interval{Start: v.Start, End: v.End}
	best := -1
	var bestCost float64
	var rejected int64
	read := 0
	for c := range f.classes {
		cl := &f.classes[c]
		for k := -1; k < len(cl.used); k++ { // -1: the first never-used row
			i, twins := 0, 1
			if k >= 0 {
				i = cl.used[k]
			} else if len(cl.unused) > 0 {
				i, twins = cl.unused[0], len(cl.unused)
			} else {
				continue
			}
			if read%cancelCheckEvery == 0 {
				if err := s.ctx.Err(); err != nil {
					return -1, 0, err
				}
			}
			read++
			r := &f.rows[i]
			if r.cpu+cpu > r.capCPU {
				// Every row after it holds at least r.cpu of the same capacity.
				rejected += int64(twins + len(cl.used) - k - 1)
				break
			}
			if memoryCheck && r.mem+mem > r.capMem {
				rejected += int64(twins)
				continue
			}
			cost := r.p1 * cpu * minutes // energy.RunCost, Eq. 3
			if transitionAware {
				segWith := r.alpha + r.pIdle*minutes // v's own segment, alone
				if !r.empty {
					segWith = f.state[i].SegmentCostWith(iv)
				}
				cost = r.runCost + cost + segWith - r.cost
			}
			if best < 0 || cost < bestCost || cost == bestCost && i < best {
				best, bestCost = i, cost
			}
		}
	}
	s.stats.CandidatesEvaluated += int64(len(f.rows))
	s.stats.FeasibilityRejections += rejected
	s.stats.ScanWall += time.Since(scanStart)
	return best, bestCost, nil
}
