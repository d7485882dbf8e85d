package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestEnergyRecorderMonotoneAndRate(t *testing.T) {
	r := NewEnergyRecorder(8)
	r.Record(EnergySample{Clock: 0, TotalWattMinutes: 0})
	r.Record(EnergySample{Clock: 10, TotalWattMinutes: 100})
	r.Record(EnergySample{Clock: 30, TotalWattMinutes: 400})

	got, _, _ := r.Samples(-1, 0)
	if len(got) != 3 {
		t.Fatalf("got %d samples", len(got))
	}
	// First sample has no baseline; the rest are ΔTotal·60/ΔClock.
	if got[0].RateWatts != 0 {
		t.Fatalf("first sample rate %g", got[0].RateWatts)
	}
	if got[1].RateWatts != 600 { // 100 Wmin over 10 min
		t.Fatalf("second sample rate %g, want 600", got[1].RateWatts)
	}
	if got[2].RateWatts != 900 { // 300 Wmin over 20 min
		t.Fatalf("third sample rate %g, want 900", got[2].RateWatts)
	}
	// Integrating the rate over the clock series reproduces the ledger:
	// sum(rate_i * dClock_i / 60) == Total_last - Total_first.
	var integral float64
	for i := 1; i < len(got); i++ {
		integral += got[i].RateWatts * float64(got[i].Clock-got[i-1].Clock) / 60
	}
	if want := got[2].TotalWattMinutes - got[0].TotalWattMinutes; integral != want {
		t.Fatalf("integral %g != ΔTotal %g", integral, want)
	}
}

func TestEnergyRecorderSameClockReplaces(t *testing.T) {
	r := NewEnergyRecorder(8)
	r.Record(EnergySample{Clock: 5, TotalWattMinutes: 50})
	// Three mutations inside minute 10: the latest state of the minute
	// wins and its rate is computed against minute 5 every time.
	r.Record(EnergySample{Clock: 10, TotalWattMinutes: 80})
	r.Record(EnergySample{Clock: 10, TotalWattMinutes: 90})
	r.Record(EnergySample{Clock: 10, TotalWattMinutes: 100})
	all, last, ok := r.Samples(-1, 0)
	if len(all) != 2 {
		t.Fatalf("len %d, want 2 (same-clock samples replace)", len(all))
	}
	if !ok || last.Clock != 10 || last.TotalWattMinutes != 100 {
		t.Fatalf("last %+v", last)
	}
	if last.RateWatts != (100-50)*60.0/5 {
		t.Fatalf("replaced sample rate %g, want %g", last.RateWatts, (100-50)*60.0/5)
	}
	// An out-of-order older clock is dropped.
	r.Record(EnergySample{Clock: 7, TotalWattMinutes: 999})
	if _, last, _ := r.Samples(-1, 0); last.Clock != 10 || last.TotalWattMinutes != 100 {
		t.Fatalf("stale sample accepted: %+v", last)
	}
	// The series stays strictly monotone in Clock.
	got, _, _ := r.Samples(-1, 0)
	for i := 1; i < len(got); i++ {
		if got[i].Clock <= got[i-1].Clock {
			t.Fatalf("non-monotone series: %+v", got)
		}
	}
}

func TestEnergyRecorderWindowAndSince(t *testing.T) {
	r := NewEnergyRecorder(4)
	for c := 1; c <= 6; c++ {
		r.Record(EnergySample{Clock: c * 10, TotalWattMinutes: float64(c)})
	}
	got, _, _ := r.Samples(-1, 0)
	if len(got) != 4 || got[0].Clock != 30 || got[3].Clock != 60 {
		t.Fatalf("window contents %+v", got)
	}
	since, _, _ := r.Samples(40, 0)
	if len(since) != 2 || since[0].Clock != 50 {
		t.Fatalf("since=40 returned %+v", since)
	}
	// The newest sample comes back whatever the filter keeps.
	if past, n, ok := r.Samples(60, 0); len(past) != 0 || !ok || n.Clock != 60 || n.Seq != 6 {
		t.Fatalf("since=60 returned %+v and newest %+v (ok %v), want none and clock 60", past, n, ok)
	}
	limited, _, _ := r.Samples(-1, 1)
	if len(limited) != 1 || limited[0].Clock != 60 {
		t.Fatalf("limit=1 returned %+v", limited)
	}
}

func TestEnergyRecorderNilSafe(t *testing.T) {
	var r *EnergyRecorder
	r.Record(EnergySample{Clock: 1})
	if samples, _, ok := r.Samples(-1, 0); samples != nil || ok {
		t.Fatal("nil recorder not inert")
	}
	var buf bytes.Buffer
	r.WriteMetrics(&buf)
	if buf.Len() != 0 {
		t.Fatalf("nil recorder wrote metrics: %s", buf.String())
	}
}

func TestEnergyRecorderMetrics(t *testing.T) {
	r := NewEnergyRecorder(8)
	var empty bytes.Buffer
	r.WriteMetrics(&empty)
	if !strings.Contains(empty.String(), "vmalloc_energy_samples_total 0") {
		t.Fatalf("empty recorder exposition:\n%s", empty.String())
	}
	if strings.Contains(empty.String(), "vmalloc_energy_clock_minutes") {
		t.Fatalf("empty recorder emitted sample gauges:\n%s", empty.String())
	}

	r.Record(EnergySample{Clock: 0, TotalWattMinutes: 0})
	r.Record(EnergySample{
		Clock: 60, RunWattMinutes: 100, IdleWattMinutes: 20, TransitionWattMinutes: 5,
		TotalWattMinutes: 125, Active: 3, Waking: 1, Sleeping: 4, Residents: 9,
		Classes: map[string]ClassUsage{
			"default": {Servers: 8, Active: 3, CPUCapacity: 30, CPUUsed: 15, Utilization: 0.5},
		},
	})
	var buf bytes.Buffer
	r.WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		"vmalloc_energy_samples_total 2",
		"vmalloc_energy_clock_minutes 60",
		"vmalloc_energy_rate_watts 125",
		`vmalloc_energy_class_utilization{class="default"} 0.5`,
		`vmalloc_energy_class_servers_active{class="default"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}
