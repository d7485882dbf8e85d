// Package model defines the domain types of the energy-aware VM allocation
// problem: virtual machines with fixed time intervals and stable resource
// demands, non-homogeneous servers with affine power models and state
// transition costs, and complete problem instances.
//
// Conventions (shared by every package in this module):
//
//   - Time is discrete, in minutes. A VM occupies the closed interval
//     [Start, End]; the planning horizon is [1, T].
//   - CPU is measured in compute units (EC2-style), memory in GBytes.
//   - Power is in watts; energy is in watt-minutes.
package model

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Resources is a CPU/memory pair, used both for VM demands and server
// capacities.
type Resources struct {
	CPU float64 `json:"cpu"`
	Mem float64 `json:"mem"`
}

// Fits reports whether r fits within capacity c component-wise.
func (r Resources) Fits(c Resources) bool {
	return r.CPU <= c.CPU && r.Mem <= c.Mem
}

// Add returns the component-wise sum of r and o.
func (r Resources) Add(o Resources) Resources {
	return Resources{CPU: r.CPU + o.CPU, Mem: r.Mem + o.Mem}
}

// IsZero reports whether both components are zero.
func (r Resources) IsZero() bool { return r.CPU == 0 && r.Mem == 0 }

func (r Resources) String() string {
	return fmt.Sprintf("{cpu=%.2f mem=%.2f}", r.CPU, r.Mem)
}

// VM is a virtual machine request: a stable resource demand held over the
// closed time interval [Start, End].
type VM struct {
	ID     int       `json:"id"`
	Type   string    `json:"type,omitempty"`
	Demand Resources `json:"demand"`
	Start  int       `json:"start"`
	End    int       `json:"end"`
}

// Duration returns the number of time units the VM occupies (End−Start+1).
func (v VM) Duration() int { return v.End - v.Start + 1 }

// Validate reports whether the VM is well formed.
func (v VM) Validate() error {
	switch {
	case v.Start < 1:
		return fmt.Errorf("vm %d: start %d < 1", v.ID, v.Start)
	case v.End < v.Start:
		return fmt.Errorf("vm %d: end %d before start %d", v.ID, v.End, v.Start)
	case !isPositiveFinite(v.Demand.CPU):
		return fmt.Errorf("vm %d: invalid CPU demand %g", v.ID, v.Demand.CPU)
	case !isPositiveFinite(v.Demand.Mem):
		return fmt.Errorf("vm %d: invalid memory demand %g", v.ID, v.Demand.Mem)
	}
	return nil
}

// Usage returns the summed demand of vms at every minute, indexed by minute
// up to the latest End: Usage(buf, vms)[t] is the direct sum, in slice
// order, of the demands of the VMs running at t. A minute with nothing
// running is exactly zero (no running total leaves residue there). The
// answer reuses buf's storage when it is large enough, so a caller that
// sums server after server passes the last answer back in. The VMs must be
// valid (VM.Validate).
func Usage(buf []Resources, vms []VM) []Resources {
	last := 0
	for _, v := range vms {
		last = max(last, v.End)
	}
	use := slices.Grow(buf[:0], last+1)[:last+1]
	clear(use)
	for _, v := range vms {
		for t := v.Start; t <= v.End; t++ {
			use[t] = use[t].Add(v.Demand)
		}
	}
	return use
}

// PlacedVM is one admitted VM: the request, the index of its hosting
// server in the configured fleet list, and the minute it actually starts
// (its requested start plus any wake-up delay). It is declared here, in
// the one package both the fleet (internal/online) and the wire contract
// (internal/api) may import, so a state read hands the fleet's own slice
// to the encoder.
type PlacedVM struct {
	VM     VM  `json:"vm"`
	Server int `json:"server"`
	Start  int `json:"start"`
}

// End returns the last minute the VM occupies given its actual start.
func (p PlacedVM) End() int { return p.Start + p.VM.Duration() - 1 }

// isPositiveFinite reports whether x is a finite number greater than zero
// (NaN and ±Inf demands would otherwise slip through comparisons).
func isPositiveFinite(x float64) bool {
	return x > 0 && !math.IsInf(x, 1)
}

// Server is a physical machine with fixed resource capacity, an affine
// power model P(u) = PIdle + (PPeak−PIdle)·u over CPU utilisation u, and a
// transition time governing the energy cost of a power-saving→active switch.
type Server struct {
	ID       int       `json:"id"`
	Type     string    `json:"type,omitempty"`
	Capacity Resources `json:"capacity"`

	// PIdle and PPeak are the idle and peak power draws, in watts.
	PIdle float64 `json:"pIdleWatts"`
	PPeak float64 `json:"pPeakWatts"`

	// TransitionTime is the time, in minutes, the server takes to switch
	// from the power-saving state to the active state. During the switch
	// power is consumed at the peak rate, so the transition cost is
	// PPeak·TransitionTime watt-minutes.
	TransitionTime float64 `json:"transitionTimeMinutes"`
}

// TransitionCost returns α, the energy cost in watt-minutes of one
// power-saving→active transition.
func (s Server) TransitionCost() float64 { return s.PPeak * s.TransitionTime }

// UnitCPUPower returns P¹ (paper Eq. 2): the marginal power, in watts, drawn
// by one compute unit of CPU demand on this server.
func (s Server) UnitCPUPower() float64 {
	return (s.PPeak - s.PIdle) / s.Capacity.CPU
}

// Power returns the instantaneous power draw (paper Eq. 1) at CPU
// utilisation u ∈ [0,1] while the server is active.
func (s Server) Power(u float64) float64 {
	return s.PIdle + (s.PPeak-s.PIdle)*u
}

// Validate reports whether the server is well formed.
func (s Server) Validate() error {
	switch {
	case !isPositiveFinite(s.Capacity.CPU):
		return fmt.Errorf("server %d: invalid CPU capacity %g", s.ID, s.Capacity.CPU)
	case !isPositiveFinite(s.Capacity.Mem):
		return fmt.Errorf("server %d: invalid memory capacity %g", s.ID, s.Capacity.Mem)
	case math.IsNaN(s.PIdle) || s.PIdle < 0:
		return fmt.Errorf("server %d: invalid idle power %g", s.ID, s.PIdle)
	case math.IsNaN(s.PPeak) || math.IsInf(s.PPeak, 1) || s.PPeak < s.PIdle:
		return fmt.Errorf("server %d: invalid peak power %g (idle %g)", s.ID, s.PPeak, s.PIdle)
	case math.IsNaN(s.TransitionTime) || s.TransitionTime < 0:
		return fmt.Errorf("server %d: invalid transition time %g", s.ID, s.TransitionTime)
	}
	return nil
}

// Instance is a complete allocation problem: a VM set, a server fleet and
// the planning horizon [1, Horizon].
type Instance struct {
	VMs     []VM     `json:"vms"`
	Servers []Server `json:"servers"`
	Horizon int      `json:"horizon"`
}

// ErrEmptyInstance is returned by Validate for instances with no VMs or no
// servers.
var ErrEmptyInstance = errors.New("model: empty instance")

// NewInstance builds an instance from the given VMs and servers, computing
// the horizon as the latest VM end time. The slices are copied.
func NewInstance(vms []VM, servers []Server) Instance {
	inst := Instance{
		VMs:     make([]VM, len(vms)),
		Servers: make([]Server, len(servers)),
	}
	copy(inst.VMs, vms)
	copy(inst.Servers, servers)
	for _, v := range inst.VMs {
		if v.End > inst.Horizon {
			inst.Horizon = v.End
		}
	}
	return inst
}

// Validate checks instance-wide invariants: non-emptiness, well-formed
// components, unique IDs, and every VM interval within [1, Horizon].
func (in Instance) Validate() error {
	if len(in.VMs) == 0 || len(in.Servers) == 0 {
		return ErrEmptyInstance
	}
	seenVM := make(map[int]bool, len(in.VMs))
	for _, v := range in.VMs {
		if err := v.Validate(); err != nil {
			return err
		}
		if seenVM[v.ID] {
			return fmt.Errorf("model: duplicate vm id %d", v.ID)
		}
		seenVM[v.ID] = true
		if v.End > in.Horizon {
			return fmt.Errorf("vm %d: end %d beyond horizon %d", v.ID, v.End, in.Horizon)
		}
	}
	seenSrv := make(map[int]bool, len(in.Servers))
	for _, s := range in.Servers {
		if err := s.Validate(); err != nil {
			return err
		}
		if seenSrv[s.ID] {
			return fmt.Errorf("model: duplicate server id %d", s.ID)
		}
		seenSrv[s.ID] = true
	}
	return nil
}

// VMByID returns the VM with the given ID, or false if absent.
func (in Instance) VMByID(id int) (VM, bool) {
	for _, v := range in.VMs {
		if v.ID == id {
			return v, true
		}
	}
	return VM{}, false
}

// ServerByID returns the server with the given ID, or false if absent.
func (in Instance) ServerByID(id int) (Server, bool) {
	for _, s := range in.Servers {
		if s.ID == id {
			return s, true
		}
	}
	return Server{}, false
}

// ByServer groups a placement (VM ID → server ID) by server: entry i lists,
// in instance order, the VMs placed on in.Servers[i] (of two equal server
// IDs, the first, as ServerByID has it). A VM the placement misses is an
// error at once; a server ID the instance lacks is reported after the scan.
func (in Instance) ByServer(placement map[int]int) ([][]VM, error) {
	index := make(map[int]int, len(in.Servers))
	for i := len(in.Servers) - 1; i >= 0; i-- {
		index[in.Servers[i].ID] = i
	}
	byServer := make([][]VM, len(in.Servers))
	unknown, anyUnknown := 0, false
	for _, v := range in.VMs {
		sid, ok := placement[v.ID]
		if !ok {
			return nil, fmt.Errorf("vm %d is unplaced", v.ID)
		}
		if i, ok := index[sid]; ok {
			byServer[i] = append(byServer[i], v)
		} else if !anyUnknown {
			unknown, anyUnknown = sid, true
		}
	}
	if anyUnknown {
		return nil, fmt.Errorf("placement references unknown server %d", unknown)
	}
	return byServer, nil
}
