package obs

import (
	"io"
	"sort"
)

// Histogram is a fixed-bucket Prometheus histogram. counts[i] holds
// observations in (bounds[i-1], bounds[i]]; the final slot is +Inf.
// It is not synchronised — owners serialise access (the cluster under
// its mutex, HTTPMetrics under its own).
type Histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.sum += v
}

// Write emits the full metric family — HELP, TYPE and an unlabelled
// series — in Prometheus text exposition format.
func (h *Histogram) Write(w io.Writer, name, help string) {
	Declare(w, name, help, "histogram")
	h.WriteSeries(w, name)
}

// WriteSeries emits one series of an already-declared histogram family:
// cumulative buckets, sum and count. labels are the series' key, value
// pairs (none for an unlabelled series); the le label is appended.
func (h *Histogram) WriteSeries(w io.Writer, name string, labels ...string) {
	bucket := append(labels[:len(labels):len(labels)], "le", "")
	le := &bucket[len(bucket)-1]
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		*le = FormatFloat(b)
		Sample(w, name+"_bucket", cum, bucket...)
	}
	cum += h.counts[len(h.bounds)]
	*le = "+Inf"
	Sample(w, name+"_bucket", cum, bucket...)
	Sample(w, name+"_sum", h.sum, labels...)
	Sample(w, name+"_count", cum, labels...)
}
