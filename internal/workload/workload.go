// Package workload generates the paper's synthetic workloads (§IV-B):
// VM requests arriving by a Poisson process with exponentially distributed
// lengths and demands drawn from the Table I catalog, and server fleets
// drawn from the Table II catalog.
//
// All generation is driven by an injected *rand.Rand, so a (spec, seed)
// pair fully determines the instance.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"vmalloc/internal/model"
)

// Spec describes a VM workload to generate.
type Spec struct {
	// NumVMs is the number of VM requests.
	NumVMs int `json:"numVMs"`
	// MeanInterArrival is the mean of the exponential inter-arrival time,
	// in minutes (Poisson arrivals).
	MeanInterArrival float64 `json:"meanInterArrivalMinutes"`
	// MeanLength is the mean of the exponential VM length, in minutes.
	MeanLength float64 `json:"meanLengthMinutes"`
	// Classes restricts the VM type catalog; empty means all classes.
	Classes []model.VMClass `json:"classes,omitempty"`
}

// Validate reports whether the spec is well formed.
func (s Spec) Validate() error {
	switch {
	case s.NumVMs < 1:
		return fmt.Errorf("workload: NumVMs %d < 1", s.NumVMs)
	case s.MeanInterArrival <= 0:
		return fmt.Errorf("workload: MeanInterArrival %g <= 0", s.MeanInterArrival)
	case s.MeanLength <= 0:
		return fmt.Errorf("workload: MeanLength %g <= 0", s.MeanLength)
	}
	return nil
}

// VMs generates the VM requests. Arrival times accumulate exponential
// inter-arrival gaps; the rest of each request is request's draw.
func (s Spec) VMs(rng *rand.Rand) ([]model.VM, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	types, err := requestTypes(s.Classes)
	if err != nil {
		return nil, err
	}
	vms := make([]model.VM, s.NumVMs)
	arrival := 0.0
	for i := range vms {
		arrival += rng.ExpFloat64() * s.MeanInterArrival
		vms[i] = request(rng, types, i+1, arrival, s.MeanLength)
	}
	return vms, nil
}

// requestTypes is the Table I catalog restricted to classes (all of it
// when classes is empty).
func requestTypes(classes []model.VMClass) ([]model.VMType, error) {
	types := model.VMTypesByClass(classes...)
	if len(types) == 0 {
		return nil, fmt.Errorf("workload: classes %v match no VM types", classes)
	}
	return types, nil
}

// request draws VM id's request for an arrival at minute arrival, in the
// §IV-B order both generators share: the start is the arrival rounded to
// an integer minute (the paper's time unit, at least 1), the length an
// exponential draw of mean meanLength (at least one minute), and the type
// a uniform pick from types.
func request(rng *rand.Rand, types []model.VMType, id int, arrival, meanLength float64) model.VM {
	start := max(int(math.Round(arrival)), 1)
	length := max(int(math.Round(rng.ExpFloat64()*meanLength)), 1)
	vt := types[rng.Intn(len(types))]
	return model.VM{
		ID:     id,
		Type:   vt.Name,
		Demand: vt.Resources(),
		Start:  start,
		End:    start + length - 1,
	}
}

// FleetSpec describes a server fleet to generate.
type FleetSpec struct {
	// NumServers is the fleet size.
	NumServers int `json:"numServers"`
	// TransitionTime is every server's power-saving→active switch time,
	// in minutes.
	TransitionTime float64 `json:"transitionTimeMinutes"`
	// Types restricts the Table II catalog by name; empty means all five
	// types.
	Types []string `json:"types,omitempty"`
}

// Validate reports whether the fleet spec is well formed.
func (f FleetSpec) Validate() error {
	switch {
	case f.NumServers < 1:
		return fmt.Errorf("workload: NumServers %d < 1", f.NumServers)
	case f.TransitionTime < 0:
		return fmt.Errorf("workload: TransitionTime %g < 0", f.TransitionTime)
	}
	return nil
}

// Servers generates the fleet: server types are assigned round-robin over
// the (shuffled) allowed types, so every type is equally represented while
// the type→slot mapping still varies by seed.
func (f FleetSpec) Servers(rng *rand.Rand) ([]model.Server, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	types, err := f.serverTypes()
	if err != nil {
		return nil, err
	}
	shuffled := make([]model.ServerType, len(types))
	copy(shuffled, types)
	rng.Shuffle(len(shuffled), func(a, b int) {
		shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
	})
	servers := make([]model.Server, f.NumServers)
	for i := range servers {
		servers[i] = shuffled[i%len(shuffled)].NewServer(i+1, f.TransitionTime)
	}
	return servers, nil
}

func (f FleetSpec) serverTypes() ([]model.ServerType, error) {
	if len(f.Types) == 0 {
		return model.ServerTypeCatalog(), nil
	}
	types := make([]model.ServerType, 0, len(f.Types))
	for _, name := range f.Types {
		st, err := model.ServerTypeByName(name)
		if err != nil {
			return nil, err
		}
		types = append(types, st)
	}
	return types, nil
}

// Generate builds a complete instance from a workload and fleet spec with
// the given seed.
func Generate(spec Spec, fleet FleetSpec, seed int64) (model.Instance, error) {
	rng := rand.New(rand.NewSource(seed))
	vms, err := spec.VMs(rng)
	if err != nil {
		return model.Instance{}, err
	}
	servers, err := fleet.Servers(rng)
	if err != nil {
		return model.Instance{}, err
	}
	inst := model.NewInstance(vms, servers)
	if err := inst.Validate(); err != nil {
		return model.Instance{}, fmt.Errorf("workload: generated invalid instance: %w", err)
	}
	return inst, nil
}
