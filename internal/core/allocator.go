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
// VM, against Fleet, the state the rules read.
// The candidate scan runs on a per-allocation worker pool (see engine.go)
// and is byte-identical to the sequential scan; WithParallelism tunes or
// disables it. All Allocate methods take a context.Context and return
// ctx.Err() promptly when it is cancelled.
package core

import (
	"cmp"
	"context"
	"fmt"
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
	// Parallelism is the candidate-scan worker pool size: 0 (default)
	// selects min(GOMAXPROCS, ceil(servers/16)); 1 forces the sequential
	// scan; n>1 forces an n-worker pool.
	Parallelism int
	// Seed drives the randomised allocators (FFPS, RandomFit).
	// Default 1.
	Seed int64
}

// DefaultConfig returns the constructor defaults documented on Config.
func DefaultConfig() Config {
	return Config{TransitionAware: true, MemoryCheck: true, Parallelism: 0, Seed: 1}
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

// WithParallelism sets the candidate-scan worker pool size: 1 forces the
// sequential scan, n>1 forces an n-worker pool, and 0 restores the
// default min(GOMAXPROCS, ceil(servers/16)). Placements are identical at
// every setting; only throughput changes.
func WithParallelism(n int) Option {
	return optionFunc(func(c *Config) { c.Parallelism = n })
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

// Fleet is the per-server allocation state the placement rules read:
// resource profiles for feasibility and energy states for cost.
//
// Concurrency: the read path (Fits, FitsCPUOnly, SpareCPU, SpareMem,
// State's cost queries) is safe for concurrent use from scan workers;
// Commit must only run with no concurrent readers. Run upholds this by
// scanning and committing in strictly alternating phases.
type Fleet struct {
	Servers []model.Server
	horizon int
	cpu     []timeline.Profile
	mem     []timeline.Profile
	state   []*energy.ServerState
}

// NewFleet builds the empty allocation state for the instance's servers
// over its horizon. Per-server resource profiles are allocated lazily on
// the first commit: at paper scales most servers never host a VM, and the
// segment trees are the dominant memory cost (O(T) per server).
func NewFleet(inst model.Instance) *Fleet {
	f := &Fleet{
		Servers: inst.Servers,
		horizon: inst.Horizon,
		cpu:     make([]timeline.Profile, len(inst.Servers)),
		mem:     make([]timeline.Profile, len(inst.Servers)),
		state:   make([]*energy.ServerState, len(inst.Servers)),
	}
	for i, s := range inst.Servers {
		f.state[i] = energy.NewServerState(s)
	}
	return f
}

// ensureProfiles allocates server i's profiles on first use.
func (f *Fleet) ensureProfiles(i int) {
	if f.cpu[i] == nil {
		f.cpu[i] = timeline.NewTreeProfile(f.horizon)
		f.mem[i] = timeline.NewTreeProfile(f.horizon)
	}
}

// Fits reports whether server index i has sufficient spare CPU and memory
// for v throughout [v.Start, v.End].
func (f *Fleet) Fits(i int, v model.VM) bool {
	s := f.Servers[i]
	if !v.Demand.Fits(s.Capacity) {
		return false
	}
	if f.cpu[i] == nil {
		return true // empty server: the static capacity check suffices
	}
	if f.cpu[i].Max(v.Start, v.End)+v.Demand.CPU > s.Capacity.CPU {
		return false
	}
	return f.mem[i].Max(v.Start, v.End)+v.Demand.Mem <= s.Capacity.Mem
}

// FitsCPUOnly is Fits with the memory constraint ignored (used by the
// ablation variant).
func (f *Fleet) FitsCPUOnly(i int, v model.VM) bool {
	s := f.Servers[i]
	if v.Demand.CPU > s.Capacity.CPU {
		return false
	}
	if f.cpu[i] == nil {
		return true
	}
	return f.cpu[i].Max(v.Start, v.End)+v.Demand.CPU <= s.Capacity.CPU
}

// State returns server index i's energy state.
func (f *Fleet) State(i int) *energy.ServerState { return f.state[i] }

// SpareCPU returns server index i's minimum spare CPU over the closed
// interval [start, end].
func (f *Fleet) SpareCPU(i, start, end int) float64 {
	if f.cpu[i] == nil {
		return f.Servers[i].Capacity.CPU
	}
	return f.Servers[i].Capacity.CPU - f.cpu[i].Max(start, end)
}

// SpareMem returns server index i's minimum spare memory over the closed
// interval [start, end].
func (f *Fleet) SpareMem(i, start, end int) float64 {
	if f.mem[i] == nil {
		return f.Servers[i].Capacity.Mem
	}
	return f.Servers[i].Capacity.Mem - f.mem[i].Max(start, end)
}

// Commit places v on server index i.
func (f *Fleet) Commit(i int, v model.VM) {
	f.ensureProfiles(i)
	f.cpu[i].Add(v.Start, v.End, v.Demand.CPU)
	f.mem[i].Add(v.Start, v.End, v.Demand.Mem)
	f.state[i].Add(v)
}

// ServersUsed returns the number of servers with at least one VM.
func (f *Fleet) ServersUsed() int {
	var used int
	for _, st := range f.state {
		if st.VMs() > 0 {
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

// FinishResult assembles a Result: it re-derives the exact objective with
// the independent evaluator so a bookkeeping bug in an allocator cannot go
// unnoticed.
func FinishResult(name string, inst model.Instance, placement map[int]int, used int) (*Result, error) {
	breakdown, err := energy.EvaluateObjective(inst, placement)
	if err != nil {
		return nil, err
	}
	return &Result{
		Allocator:   name,
		Placement:   placement,
		Energy:      breakdown,
		ServersUsed: used,
	}, nil
}

// Scan is what a placement rule is handed: the fleet as committed so far
// and the run's scan engine, bound to the run's context and statistics.
type Scan struct {
	Fleet  *Fleet
	ctx    context.Context
	engine *ScanEngine
	stats  *AllocStats
}

// ArgMin is ScanEngine.ArgMin over the fleet's servers.
func (s *Scan) ArgMin(eval func(i int) (float64, bool)) (int, error) {
	return s.engine.ArgMin(s.ctx, s.stats, len(s.Fleet.Servers), eval)
}

// First is ScanEngine.First over the fleet's servers, visited in whatever
// order the rule maps positions 0..n-1 to.
func (s *Scan) First(feasible func(k int) bool) (int, error) {
	return s.engine.First(s.ctx, s.stats, len(s.Fleet.Servers), feasible)
}

// Run is the placement loop of every offline allocator: validate the
// instance, take its VMs in (start, ID) order, ask rule for a server for
// each and commit it there, then price the placement with the independent
// evaluator. rest[0] is the VM to place and rest[1:] those still to come,
// in order; rule returns a fleet server index, or -1 when the VM fits
// nowhere. A rule reads s.Fleet and never commits: that the commits arrive
// in start order is decided here and nowhere else.
func Run(ctx context.Context, name string, cfg Config, inst model.Instance, rule func(s *Scan, rest []model.VM) (int, error)) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	fleet := NewFleet(inst)
	engine := NewScanEngine(cfg.Parallelism, len(fleet.Servers))
	defer engine.Close()
	s := &Scan{Fleet: fleet, ctx: ctx, engine: engine, stats: engine.NewStats()}
	placement := make(map[int]int, len(inst.VMs))
	vms := SortVMsByStart(inst)
	for k, v := range vms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
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
	res, err := FinishResult(name, inst, placement, fleet.ServersUsed())
	if err != nil {
		return nil, err
	}
	res.Stats = engine.FinishStats(s.stats, start)
	return res, nil
}

// MinCost is the paper's heuristic allocator.
type MinCost struct {
	cfg Config
}

var _ Allocator = (*MinCost)(nil)

// NewMinCost returns the paper's heuristic allocator. It honours
// WithParallelism, WithoutTransitionAwareness and WithoutMemoryCheck; by
// default the candidate scan is parallel (see Config.Parallelism), fully
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
// lower server index, making the algorithm fully deterministic at every
// parallelism setting.
func (m *MinCost) Allocate(ctx context.Context, inst model.Instance) (*Result, error) {
	return Run(ctx, m.Name(), m.cfg, inst, func(s *Scan, rest []model.VM) (int, error) {
		fleet, v := s.Fleet, rest[0]
		return s.ArgMin(func(i int) (float64, bool) {
			if m.cfg.MemoryCheck {
				if !fleet.Fits(i, v) {
					return 0, false
				}
			} else if !fleet.FitsCPUOnly(i, v) {
				return 0, false
			}
			if m.cfg.TransitionAware {
				return fleet.State(i).IncrementalCost(v), true
			}
			return energy.RunCost(fleet.Servers[i], v), true
		})
	})
}
