package main

import (
	"math/rand"
	"sort"

	"vmalloc"
	"vmalloc/internal/api"
)

// step is everything the generator issues at one fleet minute: the clock
// tick to Minute, that minute's admissions, then its early releases. The
// step boundary is a barrier, so the order the service observes is
// reproducible at minute granularity.
type step struct {
	minute   int
	admits   []api.AdmitRequest
	releases []int // VM IDs, ascending
}

// schedule is one round's deterministic operation timeline.
type schedule struct {
	steps []step
	vms   int
	// warm is the number of leading steps that are warm-up: they carry the
	// first 5% of the admissions and are not measured.
	warm int
}

// buildSchedule turns a generated instance (paper §IV-B arrivals, lengths
// and Table I demands) into minute steps. releaseFraction of the VMs get
// an early release at a seeded minute strictly inside their lifetime, as
// cmd/vmload does.
func buildSchedule(inst vmalloc.Instance, releaseFraction float64, seed int64) *schedule {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	byMinute := map[int]*step{}
	at := func(m int) *step {
		s := byMinute[m]
		if s == nil {
			s = &step{minute: m}
			byMinute[m] = s
		}
		return s
	}
	last := 0
	for _, v := range inst.VMs {
		length := v.End - v.Start + 1
		s := at(v.Start)
		s.admits = append(s.admits, api.AdmitRequest{
			ID: v.ID, Type: v.Type, Demand: v.Demand, Start: v.Start, DurationMinutes: length,
		})
		last = max(last, v.Start)
		if length >= 2 && rng.Float64() < releaseFraction {
			rel := v.Start + 1 + rng.Intn(length-1)
			at(rel).releases = append(at(rel).releases, v.ID)
			last = max(last, rel)
		}
	}
	sch := &schedule{vms: len(inst.VMs)}
	// One step per fleet minute, empty ones included: the clock ticks every
	// minute whether or not anything arrives.
	for m := 1; m <= last; m++ {
		s := byMinute[m]
		if s == nil {
			s = &step{minute: m}
		}
		sort.Ints(s.releases)
		sch.steps = append(sch.steps, *s)
	}
	admitted := 0
	for i, s := range sch.steps {
		if admitted*20 >= sch.vms {
			sch.warm = i
			break
		}
		admitted += len(s.admits)
	}
	return sch
}

// truncate drops every step after the given fleet minute.
func (s *schedule) truncate(minute int) {
	for i, st := range s.steps {
		if st.minute > minute {
			s.steps = s.steps[:i]
			return
		}
	}
}

// splitFleet cuts a server list into n contiguous shard fleets; server IDs
// stay unique across the shards.
func splitFleet(servers []vmalloc.Server, n int) [][]vmalloc.Server {
	out := make([][]vmalloc.Server, n)
	for i := range out {
		lo, hi := i*len(servers)/n, (i+1)*len(servers)/n
		out[i] = servers[lo:hi]
	}
	return out
}
