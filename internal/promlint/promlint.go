// Package promlint validates Prometheus text-exposition payloads in
// tests. It is shared by the vmserve handler tests and the vmgate
// merge tests, so the single-shard exposition and the gate's merged
// multi-shard exposition are held to the same rules: well-formed sample
// lines, HELP/TYPE declared once and before each family's samples, a
// family named _total typed counter, no duplicate series, and cumulative
// histogram buckets whose +Inf bucket equals _count.
package promlint

import (
	"strings"
	"testing"

	"vmalloc/internal/obs"
)

// Lint validates one Prometheus text-exposition payload, reporting
// every violation as a test error. A payload obs.ReadExposition cannot
// read (a malformed comment, a sample without a value or with a bad
// one) is reported once, with the line that stops it.
func Lint(t testing.TB, payload string) {
	t.Helper()
	lines, err := obs.ReadExposition([]byte(payload))
	if err != nil {
		t.Error(err)
		return
	}
	seen := map[string]bool{}          // full series (name + labels)
	declared := map[string]bool{}      // family name with HELP or TYPE seen
	kinds := map[string]bool{}         // "HELP name" and "TYPE name" seen
	sampled := map[string]bool{}       // family name with samples seen
	lastBucket := map[string]float64{} // histogram series → its last cumulative bucket
	counts := map[string]float64{}     // histogram series → its _count
	infs := map[string]float64{}       // histogram series → its +Inf bucket

	for _, l := range lines {
		if l.Kind != "" {
			if sampled[l.Name] {
				t.Errorf("%s: %s declared after its samples", l.Kind, l.Name)
			}
			if kinds[l.Kind+" "+l.Name] {
				t.Errorf("%s: %s declared twice", l.Kind, l.Name)
			}
			kinds[l.Kind+" "+l.Name] = true
			if l.Kind == "TYPE" && strings.HasSuffix(l.Name, "_total") && l.Text != "counter" {
				t.Errorf("%s is named _total but typed %s: a monotone total is a counter", l.Name, l.Text)
			}
			declared[l.Name] = true
			continue
		}
		series, val := l.Series(), l.Value
		if seen[series] {
			t.Errorf("duplicate series %q", series)
		}
		seen[series] = true

		// _bucket/_sum/_count samples belong to the histogram family.
		family := l.Name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(l.Name, suf); base != l.Name && declared[base] {
				family = base
			}
		}
		if !declared[family] {
			t.Errorf("series %q sampled before any HELP/TYPE for %q", series, family)
		}
		sampled[family] = true

		// Histogram invariants: cumulative buckets, +Inf == _count. A
		// histogram's series is its family name with the labels but le.
		hist := obs.Line{Name: family, Labels: l.Labels}.Series("le")
		if strings.HasSuffix(l.Name, "_bucket") {
			le := ""
			for i := 0; i+1 < len(l.Labels); i += 2 {
				if l.Labels[i] == "le" {
					le = l.Labels[i+1]
				}
			}
			if le == "" {
				t.Errorf("bucket %q has no le label", series)
				continue
			}
			if prev, ok := lastBucket[hist]; ok && val < prev {
				t.Errorf("bucket %q: %g < previous bucket %g (not cumulative)", series, val, prev)
			}
			lastBucket[hist] = val
			if le == "+Inf" {
				infs[hist] = val
			}
		}
		if l.Name == family+"_count" {
			counts[hist] = val
		}
	}
	for hist, inf := range infs {
		if count, ok := counts[hist]; ok && count != inf {
			t.Errorf("histogram %q: +Inf bucket %g != _count %g", hist, inf, count)
		}
	}
	if len(infs) == 0 {
		t.Error("no histogram buckets found in the payload")
	}
}
