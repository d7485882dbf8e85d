package loadgen

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Metrics is a flat view of one Prometheus text-exposition scrape:
// series name (including its label set, verbatim) → sample value.
type Metrics map[string]float64

// ParseMetrics reads the Prometheus text exposition format the cluster
// emits: `name value` or `name{labels} value` lines, comments skipped.
func ParseMetrics(r io.Reader) (Metrics, error) {
	m := make(Metrics)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("loadgen: metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("loadgen: metrics line %q: %w", line, err)
		}
		m[strings.TrimSpace(line[:sp])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// foldShards adds every series a gate stamped with a shard="…" label
// (always the first label, see shard.MergeExpositions) into the same
// series without that label, keeping the labelled ones. A gate's merged
// scrape then answers the unlabelled names a single vmserve exports with
// the sum across shards; a scrape without shard labels is unchanged.
func (m Metrics) foldShards() {
	const lead = `{shard="`
	sums := make(Metrics)
	for k, v := range m {
		open := strings.Index(k, lead)
		if open < 0 || open != strings.IndexByte(k, '{') {
			continue
		}
		end := strings.IndexByte(k[open+len(lead):], '"')
		if end < 0 {
			continue
		}
		name, rest := k[:open], k[open+len(lead)+end+1:]
		if rest != "}" {
			name += "{" + strings.TrimPrefix(rest, ",")
		}
		sums[name] += v
	}
	for k, v := range sums {
		m[k] += v
	}
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

// Keys returns the series names in sorted order, for deterministic
// report output.
func (m Metrics) Keys() []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
