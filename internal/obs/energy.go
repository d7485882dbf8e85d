package obs

import (
	"io"
	"log/slog"
	"maps"
	"slices"
	"sync"
	"time"
)

// ClassUsage is one server class's point-in-time capacity picture inside
// an EnergySample (classes come from model.Server.Type; untyped servers
// report as "default").
type ClassUsage struct {
	// Servers is the class population; Active how many are powered on.
	Servers int `json:"servers"`
	Active  int `json:"active"`
	// CPUCapacity sums active servers' CPU capacity; CPUUsed sums their
	// committed CPU at the sample instant.
	CPUCapacity float64 `json:"cpuCapacity"`
	CPUUsed     float64 `json:"cpuUsed"`
	// Utilization is CPUUsed/CPUCapacity (0 when nothing is active) —
	// the u feeding the paper's power model P(u) = PIdle+(PPeak−PIdle)·u.
	Utilization float64 `json:"utilization"`
}

// EnergySample is one point of the fleet's energy-over-time curve. The
// cumulative watt-minute fields come from the same energy ledger as
// State.TotalEnergy, so integrating RateWatts over the clock series
// reproduces the reported total: for consecutive samples,
// (Total_i − Total_{i−1}) = RateWatts_i · (Clock_i − Clock_{i−1}) / 60.
type EnergySample struct {
	// Seq counts samples recorded (monotone; same-clock re-samples get a
	// fresh seq but replace the previous point).
	Seq int64 `json:"seq"`
	// Wall is when the sample was taken; Clock is the fleet's simulated
	// clock in minutes. The series is strictly monotone in Clock.
	Wall  time.Time `json:"wall"`
	Clock int       `json:"clock"`
	// Cumulative energy by component since the fleet epoch.
	RunWattMinutes        float64 `json:"runWattMinutes"`
	IdleWattMinutes       float64 `json:"idleWattMinutes"`
	TransitionWattMinutes float64 `json:"transitionWattMinutes"`
	TotalWattMinutes      float64 `json:"totalWattMinutes"`
	// RateWatts is the mean draw since the previous (distinct-clock)
	// sample: ΔTotal·60/ΔClock. The first sample reports 0.
	RateWatts float64 `json:"rateWatts"`
	// Server counts by power state, and VMs currently placed.
	Active    int `json:"active"`
	Waking    int `json:"waking"`
	Sleeping  int `json:"sleeping"`
	Residents int `json:"residents"`
	// Classes breaks utilization down per server class.
	Classes map[string]ClassUsage `json:"classes,omitempty"`
}

// DefaultEnergyWindow is the sample-ring capacity unless -energy-window
// overrides it.
const DefaultEnergyWindow = 1024

// EnergyRecorder is a bounded ring of fleet energy samples, one per
// commit/release/migration/consolidation and clock advance. Samples at
// the same fleet clock replace the newest entry (the latest state of that
// minute wins), so the retained series is strictly monotone in Clock —
// the shape /v1/debug/energy promises. A feeder may stand one sample for
// a run of same-clock mutations (RecordN) and build it only when it is
// read: every read first calls the source set by SetSource. A nil
// *EnergyRecorder is valid and records nothing.
type EnergyRecorder struct {
	mu     sync.Mutex
	source func() // called before every read, outside mu
	buf    ring[EnergySample]
	seq    int64
	// prevClock/prevTotal remember the last *distinct-clock* sample so a
	// same-clock replacement recomputes its rate against the same
	// baseline the replaced sample used.
	prevClock int
	prevTotal float64
	havePrev  bool
}

// NewEnergyRecorder returns a recorder keeping the newest n samples
// (n<=0 uses DefaultEnergyWindow).
func NewEnergyRecorder(n int) *EnergyRecorder {
	if n <= 0 {
		n = DefaultEnergyWindow
	}
	return &EnergyRecorder{buf: newRing[EnergySample](n)}
}

// SetSource makes every read of the recorder call f first, without the
// recorder's lock held, so f may take its own lock and Record: a feeder
// that builds samples lazily brings the recorder up to date there.
func (r *EnergyRecorder) SetSource(f func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.source = f
}

func (r *EnergyRecorder) pull() {
	r.mu.Lock()
	f := r.source
	r.mu.Unlock()
	if f != nil {
		f()
	}
}

// Record stores s, computing its RateWatts from the previous
// distinct-clock sample. A sample at the newest entry's clock replaces
// it; an older clock is ignored (samples arrive under the cluster lock,
// so this only guards misuse).
func (r *EnergyRecorder) Record(s EnergySample) { r.RecordN(s, 1) }

// RecordN records s as the last of n samples of one clock: the series,
// seq and rate end as n Record calls would leave them when the first n−1
// samples are replaced by the last.
func (r *EnergyRecorder) RecordN(s EnergySample, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	newest := r.buf.newest()
	if newest != nil && s.Clock < newest.Clock {
		return
	}
	r.seq += n
	s.Seq = r.seq
	if s.Wall.IsZero() {
		s.Wall = time.Now()
	}
	if newest != nil && newest.Clock == s.Clock {
		// Replacing the newest sample: its rate baseline is the sample
		// before it, remembered in prevClock/prevTotal.
		if r.havePrev {
			s.RateWatts = (s.TotalWattMinutes - r.prevTotal) * 60 /
				float64(s.Clock-r.prevClock)
		}
		*newest = s
		return
	}
	// Appending a new clock point: its rate is against the sample it
	// displaces as "newest", which also becomes the baseline for future
	// same-clock replacements.
	if newest != nil {
		s.RateWatts = (s.TotalWattMinutes - newest.TotalWattMinutes) * 60 /
			float64(s.Clock-newest.Clock)
		r.prevClock = newest.Clock
		r.prevTotal = newest.TotalWattMinutes
		r.havePrev = true
	}
	r.buf.push(&s)
}

// Samples returns buffered samples with Clock > sinceClock, oldest
// first; pass sinceClock < 0 for everything. Limit keeps the newest
// limit samples (0 = all), so pollers can resume from their last clock.
// It also returns the newest sample (ok is false when there is none), read
// in the same critical section: a reader that reports the newest beside
// the list never reports one the list could not end with.
func (r *EnergyRecorder) Samples(sinceClock, limit int) (samples []EnergySample, newest EnergySample, ok bool) {
	if r == nil {
		return nil, EnergySample{}, false
	}
	r.pull()
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := r.buf.newest(); n != nil {
		newest, ok = *n, true
	}
	return r.buf.filter(limit, func(s *EnergySample) bool { return s.Clock > sinceClock }), newest, ok
}

// Dump logs the newest n samples (n<=0 dumps everything buffered) and
// returns how many it wrote. Wired to SIGQUIT alongside the flight
// recorder.
func (r *EnergyRecorder) Dump(log *slog.Logger, n int) int {
	if r == nil || log == nil {
		return 0
	}
	samples, _, _ := r.Samples(-1, n)
	for _, s := range samples {
		log.Info("energy sample",
			"seq", s.Seq,
			"clock", s.Clock,
			"totalWattMinutes", s.TotalWattMinutes,
			"rateWatts", s.RateWatts,
			"active", s.Active,
			"waking", s.Waking,
			"sleeping", s.Sleeping,
			"residents", s.Residents,
		)
	}
	return len(samples)
}

// WriteMetrics writes the newest sample as vmalloc_energy_* gauges in
// Prometheus text format. A nil recorder writes nothing, so the families
// only appear when the recorder is enabled.
func (r *EnergyRecorder) WriteMetrics(w io.Writer) {
	if r == nil {
		return
	}
	r.pull()
	// One critical section: the count printed is the one that includes
	// the sample printed beside it.
	r.mu.Lock()
	seq := r.seq
	var last EnergySample
	newest := r.buf.newest()
	ok := newest != nil
	if ok {
		last = *newest
	}
	r.mu.Unlock()

	const prefix = "vmalloc_energy"
	Counter(w, prefix+"_samples_total", "Energy samples recorded over the process lifetime.", seq)
	if !ok {
		return
	}
	Gauge(w, prefix+"_clock_minutes", "Fleet clock at the newest energy sample, in minutes.", last.Clock)
	full := prefix + "_cumulative_watt_minutes"
	Declare(w, full, "Cumulative fleet energy by component at the newest sample, in watt-minutes.", "gauge")
	Sample(w, full, last.RunWattMinutes, "component", "run")
	Sample(w, full, last.IdleWattMinutes, "component", "idle")
	Sample(w, full, last.TransitionWattMinutes, "component", "transition")
	Sample(w, full, last.TotalWattMinutes, "component", "total")
	Gauge(w, prefix+"_rate_watts", "Mean fleet power draw between the two newest samples, in watts.", last.RateWatts)
	full = prefix + "_servers"
	Declare(w, full, "Servers by power state at the newest energy sample.", "gauge")
	Sample(w, full, last.Active, "state", "active")
	Sample(w, full, last.Waking, "state", "waking")
	Sample(w, full, last.Sleeping, "state", "power-saving")
	Gauge(w, prefix+"_resident_vms", "VMs placed at the newest energy sample.", last.Residents)

	classes := slices.Sorted(maps.Keys(last.Classes))
	if len(classes) > 0 {
		util := prefix + "_class_utilization"
		Declare(w, util, "Committed CPU over active capacity per server class at the newest sample.", "gauge")
		for _, k := range classes {
			Sample(w, util, last.Classes[k].Utilization, "class", k)
		}
		act := prefix + "_class_servers_active"
		Declare(w, act, "Active servers per class at the newest sample.", "gauge")
		for _, k := range classes {
			Sample(w, act, last.Classes[k].Active, "class", k)
		}
	}
}
