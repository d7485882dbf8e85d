// Package promlint validates Prometheus text-exposition payloads in
// tests. It is shared by the vmserve handler tests and the vmgate
// merge tests, so the single-shard exposition and the gate's merged
// multi-shard exposition are held to the same rules: well-formed sample
// lines, HELP/TYPE declared once and before each family's samples, a
// family named _total typed counter, no duplicate series, and cumulative
// histogram buckets whose +Inf bucket equals _count.
package promlint

import (
	"fmt"
	"strings"
	"testing"
)

// Lint validates one Prometheus text-exposition payload, reporting
// every violation as a test error.
func Lint(t *testing.T, payload string) {
	t.Helper()
	seen := map[string]bool{}          // full series (name + labels)
	declared := map[string]bool{}      // family name with HELP or TYPE seen
	sampled := map[string]bool{}       // family name with samples seen
	lastBucket := map[string]float64{} // bucket series prefix → last cumulative value
	counts := map[string]float64{}     // histogram _count by labelled series base
	infs := map[string]float64{}       // histogram +Inf bucket by series base

	for _, line := range strings.Split(payload, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Errorf("malformed comment line %q", line)
				continue
			}
			name := fields[2]
			if sampled[name] {
				t.Errorf("%s: %s declared after its samples", fields[1], name)
			}
			if fields[1] == "TYPE" && strings.HasSuffix(name, "_total") && fields[3] != "counter" {
				t.Errorf("%s is named _total but typed %s: a monotone total is a counter", name, fields[3])
			}
			declared[name] = true
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("sample line %q has no value", line)
			continue
		}
		series, valStr := line[:sp], line[sp+1:]
		var val float64
		if _, err := fmt.Sscanf(valStr, "%g", &val); err != nil {
			t.Errorf("sample %q: bad value %q", series, valStr)
			continue
		}
		if seen[series] {
			t.Errorf("duplicate series %q", series)
		}
		seen[series] = true

		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		// _bucket/_sum/_count samples belong to the histogram family.
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); base != name && declared[base] {
				family = base
			}
		}
		if !declared[family] {
			t.Errorf("series %q sampled before any HELP/TYPE for %q", series, family)
		}
		sampled[family] = true

		// Histogram invariants: cumulative buckets, +Inf == _count.
		if strings.HasSuffix(name, "_bucket") {
			le := ""
			if i := strings.Index(series, `le="`); i >= 0 {
				rest := series[i+4:]
				if j := strings.IndexByte(rest, '"'); j >= 0 {
					le = rest[:j]
				}
			}
			if le == "" {
				t.Errorf("bucket %q has no le label", series)
				continue
			}
			// The series without its le label identifies the histogram.
			base := strings.Replace(series, `le="`+le+`"`, "", 1)
			base = strings.NewReplacer("{,", "{", ",}", "}", "{}", "").Replace(base)
			if prev, ok := lastBucket[base]; ok && val < prev {
				t.Errorf("bucket %q: %g < previous bucket %g (not cumulative)", series, val, prev)
			}
			lastBucket[base] = val
			if le == "+Inf" {
				infs[base] = val
			}
		}
		if strings.HasSuffix(name, "_count") && declared[strings.TrimSuffix(name, "_count")] {
			base := strings.Replace(series, "_count", "_bucket", 1)
			counts[base] = val
		}
	}
	for base, inf := range infs {
		if count, ok := counts[base]; ok && count != inf {
			t.Errorf("histogram %q: +Inf bucket %g != _count %g", base, inf, count)
		}
	}
	if len(infs) == 0 {
		t.Error("no histogram buckets found in the payload")
	}
}
