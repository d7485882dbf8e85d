package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMeanCI95Basics(t *testing.T) {
	// Single sample: degenerate interval.
	ci := MeanCI95([]float64{5})
	if ci.Mean != 5 || ci.Low != 5 || ci.High != 5 {
		t.Errorf("single-sample CI = %+v", ci)
	}
	// Known small-sample case: n=2, values 0 and 2 → mean 1, sd √2,
	// half-width 12.706·√2/√2 = 12.706.
	ci = MeanCI95([]float64{0, 2})
	if math.Abs(ci.Mean-1) > 1e-12 {
		t.Errorf("mean = %g", ci.Mean)
	}
	if math.Abs(ci.High-1-12.706) > 1e-9 {
		t.Errorf("half width = %g, want 12.706", ci.High-1)
	}
	if math.Abs(ci.Low-1+12.706) > 1e-9 {
		t.Errorf("low = %g, want 1 - 12.706", ci.Low)
	}
}

// TestMeanCI95Coverage: across many resamples of a known-mean population,
// the 95% interval must contain the true mean roughly 95% of the time.
func TestMeanCI95Coverage(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const trueMean = 3.0
	hits, trials := 0, 600
	for i := 0; i < trials; i++ {
		sample := make([]float64, 10)
		for j := range sample {
			sample[j] = trueMean + rng.NormFloat64()
		}
		if ci := MeanCI95(sample); ci.Low <= trueMean && trueMean <= ci.High {
			hits++
		}
	}
	rate := float64(hits) / float64(trials)
	if rate < 0.91 || rate > 0.99 {
		t.Errorf("coverage = %.3f, want ≈0.95", rate)
	}
}
