package loadgen

import (
	"fmt"

	"vmalloc/internal/obs"
)

// Metrics is a flat view of one Prometheus text-exposition scrape:
// series (its name and labels, as obs.Sample writes them) → value.
type Metrics map[string]float64

// ParseMetrics reads an exposition (obs.ReadExposition) into one entry
// per series. A series a gate led with a shard="…" label is also added
// into the series without it, so a gate's merged scrape answers the
// names a single vmserve exports with the sum across shards.
func ParseMetrics(data []byte) (Metrics, error) {
	lines, err := obs.ReadExposition(data)
	if err != nil {
		return nil, fmt.Errorf("loadgen: metrics: %w", err)
	}
	m := make(Metrics)
	for _, l := range lines {
		if l.Kind != "" {
			continue
		}
		m[l.Series()] += l.Value
		if len(l.Labels) > 0 && l.Labels[0] == "shard" {
			m[l.Series("shard")] += l.Value
		}
	}
	return m, nil
}

// Delta returns m − before for every series present in m (a series
// absent from before counts from zero). Gauges subtract like counters;
// callers pick the series they care about.
func (m Metrics) Delta(before Metrics) Metrics {
	d := make(Metrics, len(m))
	for k, v := range m {
		d[k] = v - before[k]
	}
	return d
}
