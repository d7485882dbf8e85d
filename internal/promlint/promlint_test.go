package promlint

import (
	"fmt"
	"strings"
	"testing"
)

// clean is an exposition with one family of each type Lint checks: a
// counter, a labelled gauge and a histogram.
const clean = `# HELP vm_admissions_total VMs admitted.
# TYPE vm_admissions_total counter
vm_admissions_total 3
# HELP vm_resident VMs resident.
# TYPE vm_resident gauge
vm_resident{class="small"} 2
# HELP vm_lat_seconds Latency.
# TYPE vm_lat_seconds histogram
vm_lat_seconds_bucket{route="GET /v1/state",le="0.1"} 2
vm_lat_seconds_bucket{route="GET /v1/state",le="+Inf"} 3
vm_lat_seconds_sum{route="GET /v1/state"} 0.2
vm_lat_seconds_count{route="GET /v1/state"} 3
`

// recorder collects what Lint reports instead of failing the test.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *recorder) Error(args ...any) { r.errs = append(r.errs, fmt.Sprint(args...)) }

func lint(t *testing.T, payload string) []string {
	r := &recorder{TB: t}
	Lint(r, payload)
	return r.errs
}

// TestLintFaults plants each fault class Lint catches into the clean
// payload and checks that it is reported.
func TestLintFaults(t *testing.T) {
	if errs := lint(t, clean); len(errs) > 0 {
		t.Fatalf("clean payload reported: %q", errs)
	}
	const (
		counter = "vm_admissions_total 3\n"
		gauge   = `vm_resident{class="small"} 2` + "\n"
		bucket  = `vm_lat_seconds_bucket{route="GET /v1/state",le="0.1"} 2` + "\n"
		inf     = `vm_lat_seconds_bucket{route="GET /v1/state",le="+Inf"} 3` + "\n"
		count   = `vm_lat_seconds_count{route="GET /v1/state"} 3` + "\n"
	)
	for _, c := range []struct {
		name, old, new, want string
	}{
		{"malformed comment", counter, counter + "# a note\n", "a note"},
		{"no value", gauge, `vm_resident{class="small"}` + "\n", "no value"},
		{"bad value", counter, "vm_admissions_total three\n", "bad value"},
		{"duplicate series", counter, counter + counter, "duplicate series"},
		{"_total not a counter", "vm_admissions_total counter", "vm_admissions_total gauge", "named _total"},
		{"declared twice", "# TYPE vm_admissions_total counter\n", "# TYPE vm_admissions_total counter\n# TYPE vm_admissions_total counter\n", "declared twice"},
		{"declared after samples", count, count + "# TYPE vm_resident gauge\n", "after its samples"},
		{"sample before declaration", counter, counter + "vm_orphan 1\n", "before any HELP/TYPE"},
		{"bucket without le", bucket, `vm_lat_seconds_bucket{route="GET /v1/state"} 2` + "\n", "no le label"},
		{"buckets not cumulative", bucket, strings.Replace(bucket, "} 2", "} 4", 1), "not cumulative"},
		{"+Inf differs from _count", count, strings.Replace(count, "} 3", "} 4", 1), "+Inf bucket"},
		{"no buckets", bucket + inf, "", "no histogram buckets"},
	} {
		t.Run(c.name, func(t *testing.T) {
			payload := strings.Replace(clean, c.old, c.new, 1)
			if payload == clean {
				t.Fatalf("%q is not in the clean payload", c.old)
			}
			errs := lint(t, payload)
			for _, e := range errs {
				if strings.Contains(e, c.want) {
					return
				}
			}
			t.Errorf("no report mentions %q; got %q", c.want, errs)
		})
	}
}
