package workload

import (
	"fmt"
	"math"
	"math/rand"

	"vmalloc/internal/model"
)

// DiurnalSpec generates VM requests whose arrival rate follows a
// day/night cycle — the load shape the dynamic right-sizing literature
// (paper §V [4]) targets. Arrivals are an inhomogeneous Poisson process
// with rate
//
//	λ(t) = λ̄ · (1 + a·sin(2πt/Period)),   a = (PeakToTrough−1)/(PeakToTrough+1),
//
// so the average rate matches a flat Spec with the same MeanInterArrival
// while the instantaneous rate swings between λ̄(1−a) and λ̄(1+a).
type DiurnalSpec struct {
	// NumVMs is the number of requests.
	NumVMs int `json:"numVMs"`
	// MeanInterArrival is the day-average inter-arrival time in minutes.
	MeanInterArrival float64 `json:"meanInterArrivalMinutes"`
	// MeanLength is the mean VM length in minutes.
	MeanLength float64 `json:"meanLengthMinutes"`
	// PeakToTrough is the ratio of the peak to the trough arrival rate;
	// 1 degenerates to the flat Poisson process.
	PeakToTrough float64 `json:"peakToTrough"`
	// Period is the cycle length in minutes (e.g. 1440 for a day).
	Period float64 `json:"periodMinutes"`
	// Classes restricts the VM type catalog; empty means all classes.
	Classes []model.VMClass `json:"classes,omitempty"`
}

// Validate reports whether the spec is well formed.
func (s DiurnalSpec) Validate() error {
	// Negated compares, so a NaN field is refused too.
	switch {
	case s.NumVMs < 1:
		return fmt.Errorf("workload: NumVMs %d < 1", s.NumVMs)
	case !(s.MeanInterArrival > 0):
		return fmt.Errorf("workload: MeanInterArrival %g, want > 0", s.MeanInterArrival)
	case !(s.MeanLength > 0):
		return fmt.Errorf("workload: MeanLength %g, want > 0", s.MeanLength)
	case !(s.PeakToTrough >= 1):
		return fmt.Errorf("workload: PeakToTrough %g, want >= 1", s.PeakToTrough)
	case !(s.Period > 0):
		return fmt.Errorf("workload: Period %g, want > 0", s.Period)
	}
	return nil
}

// Draw draws the requests by thinning a homogeneous Poisson process at
// the peak rate and hands each to visit, in ID order, before drawing the
// next. visit may draw from rng itself: its draws interleave with the
// arrival process's, so a seed still fixes every draw. With PeakToTrough
// 1 (a = 0) the rate is exactly λ̄ at every t, whatever the Period, no
// candidate is thinned, and the arrivals are the flat Poisson process.
func (s DiurnalSpec) Draw(rng *rand.Rand, visit func(model.VM)) error {
	if err := s.Validate(); err != nil {
		return err
	}
	types, err := requestTypes(s.Classes)
	if err != nil {
		return err
	}
	var (
		lambdaBar = 1 / s.MeanInterArrival
		a         = (s.PeakToTrough - 1) / (s.PeakToTrough + 1)
		lambdaMax = lambdaBar * (1 + a)
	)
	now := 0.0
	for id := 1; id <= s.NumVMs; {
		now += rng.ExpFloat64() / lambdaMax
		if rng.Float64()*lambdaMax > lambdaBar*(1+a*math.Sin(2*math.Pi*now/s.Period)) {
			continue // thinned
		}
		visit(request(rng, types, id, now, s.MeanLength))
		id++
	}
	return nil
}

// VMs generates the requests: Draw, collected in ID order.
func (s DiurnalSpec) VMs(rng *rand.Rand) ([]model.VM, error) {
	vms := make([]model.VM, 0, max(s.NumVMs, 0))
	if err := s.Draw(rng, func(v model.VM) { vms = append(vms, v) }); err != nil {
		return nil, err
	}
	return vms, nil
}

// GenerateDiurnal builds a complete instance from a diurnal workload and
// a fleet spec with the given seed.
func GenerateDiurnal(spec DiurnalSpec, fleet FleetSpec, seed int64) (model.Instance, error) {
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
