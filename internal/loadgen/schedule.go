// Package loadgen is the load-generation harness for the vmserve
// allocation daemon: deterministic open-loop arrival schedules (the
// paper's §IV-B request process as workload.DiurnalSpec draws it; flat
// Poisson is its peak-to-trough 1), a typed retrying HTTP client for the
// cluster API, a worker-pool runner that replays a schedule against a
// live server, and a reporter that folds outcomes, latency quantiles and
// /metrics deltas into one result.
//
// Everything upstream of the network is deterministic: a (ScheduleSpec,
// seed) pair fully determines the operation sequence, and the runner's
// default minute-step execution keeps the admission/rejection outcome
// sequence identical across runs against fresh servers — which turns the
// generator into a repeatable correctness instrument (see the soak
// tests), not just a throughput toy.
package loadgen

import (
	"fmt"
	"math/rand"
	"sort"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
	"vmalloc/internal/workload"
)

// ScheduleSpec describes one deterministic load run.
type ScheduleSpec struct {
	// Arrivals is the request process: NumVMs requests with sinusoidal
	// Poisson arrivals, exponential lengths and Table I demands.
	// PeakToTrough 1 is the flat Poisson process, whatever the Period.
	Arrivals workload.DiurnalSpec
	// ReleaseFraction of admitted VMs are released early, at a seeded
	// minute strictly inside their lifetime. 0 disables releases.
	ReleaseFraction float64
	// Seed drives every random draw; a (spec, seed) pair fully
	// determines the schedule.
	Seed int64
}

// Step is every operation the runner issues at one fleet minute: advance
// the clock to Minute, send the admissions (each with Start = Minute and
// an explicit VM ID, so the request stream is an idempotent, replayable
// log), then issue the releases.
type Step struct {
	Minute   int
	Admits   []api.AdmitRequest
	Releases []int // VM IDs, ascending
}

// Schedule is a deterministic operation timeline for one load run.
type Schedule struct {
	Steps []Step
	// NumVMs is the number of admission requests across all steps.
	NumVMs int
	// NumReleases is the number of scheduled early releases.
	NumReleases int
	// Horizon is the last minute any generated VM would run to — the
	// final clock advance that drains all departures.
	Horizon int
}

// Ops returns the total operation count: admissions, releases, and one
// clock advance per step plus the final drain tick.
func (s *Schedule) Ops() int {
	return s.NumVMs + s.NumReleases + len(s.Steps) + 1
}

// BuildSchedule generates the deterministic operation timeline: the
// spec's Arrivals drawn from Seed and, right after each VM's draw and
// from the same rng, a ReleaseFraction coin that gives it an early
// release at a uniform minute in (start, end] — so the VM is resident
// when the release lands, whatever wake-up delay its admission absorbed.
func BuildSchedule(spec ScheduleSpec) (*Schedule, error) {
	if spec.ReleaseFraction < 0 || spec.ReleaseFraction > 1 {
		return nil, fmt.Errorf("loadgen: ReleaseFraction %g, want in [0, 1]", spec.ReleaseFraction)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	var vms []model.VM
	release := make(map[int]int)
	err := spec.Arrivals.Draw(rng, func(v model.VM) {
		vms = append(vms, v)
		if length := v.Duration(); length >= 2 && rng.Float64() < spec.ReleaseFraction {
			release[v.ID] = v.Start + 1 + rng.Intn(length-1)
		}
	})
	if err != nil {
		return nil, err
	}
	return newSchedule(vms, release), nil
}

// newSchedule lays VMs onto the runner's timeline: one admission per VM
// at its start minute, in ID order within a minute, and the horizon at
// the last end. release maps a VM ID to its early-release minute.
func newSchedule(vms []model.VM, release map[int]int) *Schedule {
	steps := make(map[int]*Step)
	stepAt := func(minute int) *Step {
		st := steps[minute]
		if st == nil {
			st = &Step{Minute: minute}
			steps[minute] = st
		}
		return st
	}
	sched := &Schedule{NumVMs: len(vms), NumReleases: len(release)}
	for _, v := range vms {
		st := stepAt(v.Start)
		st.Admits = append(st.Admits, api.AdmitRequest{
			ID:              v.ID,
			Type:            v.Type,
			Demand:          v.Demand,
			Start:           v.Start,
			DurationMinutes: v.Duration(),
		})
		sched.Horizon = max(sched.Horizon, v.End)
	}
	for id, minute := range release {
		st := stepAt(minute)
		st.Releases = append(st.Releases, id)
	}
	minutes := make([]int, 0, len(steps))
	for m := range steps {
		minutes = append(minutes, m)
	}
	sort.Ints(minutes)
	sched.Steps = make([]Step, len(minutes))
	for i, m := range minutes {
		st := steps[m]
		sort.Slice(st.Admits, func(a, b int) bool { return st.Admits[a].ID < st.Admits[b].ID })
		sort.Ints(st.Releases)
		sched.Steps[i] = *st
	}
	return sched
}
