package stats

import "math"

// CI is a two-sided confidence interval around a sample mean.
type CI struct {
	Mean  float64 `json:"mean"`
	Low   float64 `json:"low"`
	High  float64 `json:"high"`
	Level float64 `json:"level"`
}

// t95 holds two-sided 95% Student-t critical values by degrees of freedom
// (1-based); beyond the table the normal value 1.96 is used.
var t95 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
	2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
	2.042,
}

// MeanCI95 returns the 95% Student-t confidence interval of the sample
// mean. With fewer than two samples the interval collapses to the mean.
func MeanCI95(xs []float64) CI {
	ci := CI{Mean: Mean(xs), Level: 0.95}
	ci.Low, ci.High = ci.Mean, ci.Mean
	n := len(xs)
	if n < 2 {
		return ci
	}
	df := n - 1
	crit := 1.96
	if df < len(t95) {
		crit = t95[df]
	}
	half := crit * StdDev(xs) / math.Sqrt(float64(n))
	ci.Low, ci.High = ci.Mean-half, ci.Mean+half
	return ci
}
