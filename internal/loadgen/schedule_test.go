package loadgen

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"vmalloc/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/schedules.golden from this build's schedules")

const schedulesGoldenPath = "testdata/schedules.golden"

// goldenProfiles are the arrival processes the schedules golden pins:
// flat Poisson at two rates (peak-to-trough 1; period 0 in a golden line
// stands for every period) and the diurnal sinusoid at two shapes.
var goldenProfiles = []struct {
	name                 string
	meanIA, peak, period float64
}{
	{"poisson", 0.4, 1, 0},
	{"poisson", 0.5, 1, 0},
	{"diurnal", 0.5, 3, 1440},
	{"diurnal", 1.5, 4, 240},
}

// scheduleDigest is the SHA-256 of every step's minute, admissions (all
// fields, demands as float bits) and releases, in schedule order.
func scheduleDigest(s *Schedule) string {
	h := sha256.New()
	for _, st := range s.Steps {
		fmt.Fprintf(h, "m %d\n", st.Minute)
		for _, a := range st.Admits {
			fmt.Fprintf(h, "a %d %s %x %x %d %d\n", a.ID, a.Type,
				math.Float64bits(a.Demand.CPU), math.Float64bits(a.Demand.Mem), a.Start, a.DurationMinutes)
		}
		for _, id := range st.Releases {
			fmt.Fprintf(h, "r %d\n", id)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSchedulesGolden pins BuildSchedule's steps, bit for bit, for each
// golden profile × release fraction × seed. A line that moves is a
// changed request stream: every vmload digest at that spec moves with it.
// A Poisson line must come out the same at any period, since vmload's
// -profile poisson ignores -period.
func TestSchedulesGolden(t *testing.T) {
	var got strings.Builder
	for _, p := range goldenProfiles {
		periods := []float64{p.period}
		if p.period == 0 {
			periods = []float64{1, 240, 1440}
		}
		for _, rf := range []float64{0, 0.2} {
			for seed := int64(1); seed <= 6; seed++ {
				var line string
				for _, period := range periods {
					s, err := BuildSchedule(ScheduleSpec{
						Arrivals: workload.DiurnalSpec{
							NumVMs: 300, MeanInterArrival: p.meanIA, MeanLength: 40,
							PeakToTrough: p.peak, Period: period,
						},
						ReleaseFraction: rf,
						Seed:            seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					l := fmt.Sprintf("%s mia=%g peak=%g period=%g rf=%g seed=%d steps=%d releases=%d horizon=%d %s\n",
						p.name, p.meanIA, p.peak, p.period, rf, seed,
						len(s.Steps), s.NumReleases, s.Horizon, scheduleDigest(s))
					if line != "" && l != line {
						t.Errorf("%s mia=%g rf=%g seed=%d: the schedule moved with the period (%g)", p.name, p.meanIA, rf, seed, period)
					}
					line = l
				}
				got.WriteString(line)
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(schedulesGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(schedulesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		w, g := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
		for k := 0; k < len(w) && k < len(g); k++ {
			if w[k] != g[k] {
				t.Fatalf("schedules.golden line %d:\n got %s\nwant %s", k+1, g[k], w[k])
			}
		}
		t.Fatalf("schedules.golden has %d lines, this build %d", len(w), len(g))
	}
}
