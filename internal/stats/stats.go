// Package stats provides the descriptive statistics and least-squares
// curve fits the paper reports: linear and logarithmic fits with the
// adjusted R² goodness-of-fit measure shown in every figure legend.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrInsufficientData is returned when a computation needs more points
// than were supplied.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n−1 denominator), or 0
// for fewer than two points.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// FitKind identifies the functional form of a Fit.
type FitKind int

// The fit families used by the paper's figures.
const (
	Linear      FitKind = iota + 1 // y = a + b·x
	Logarithmic                    // y = a + b·ln(x)
)

func (k FitKind) String() string {
	switch k {
	case Linear:
		return "linear"
	case Logarithmic:
		return "logarithm"
	default:
		return fmt.Sprintf("FitKind(%d)", int(k))
	}
}

// Fit is a fitted two-parameter curve with its adjusted R².
type Fit struct {
	Kind  FitKind `json:"kind"`
	A     float64 `json:"a"`
	B     float64 `json:"b"`
	AdjR2 float64 `json:"adjR2"`
}

// Predict evaluates the fitted curve at x.
func (f Fit) Predict(x float64) float64 {
	switch f.Kind {
	case Logarithmic:
		return f.A + f.B*math.Log(x)
	default:
		return f.A + f.B*x
	}
}

func (f Fit) String() string {
	switch f.Kind {
	case Logarithmic:
		return fmt.Sprintf("y = %.4g + %.4g·ln(x) (Adj.R² = %.2f)", f.A, f.B, f.AdjR2)
	default:
		return fmt.Sprintf("y = %.4g + %.4g·x (Adj.R² = %.2f)", f.A, f.B, f.AdjR2)
	}
}

// LinearFit fits y = a + b·x by ordinary least squares.
func LinearFit(xs, ys []float64) (Fit, error) {
	a, b, err := leastSquares(xs, ys)
	if err != nil {
		return Fit{}, err
	}
	f := Fit{Kind: Linear, A: a, B: b}
	f.AdjR2 = adjustedR2(xs, ys, f.Predict, 2)
	return f, nil
}

// LogFit fits y = a + b·ln(x); all x must be positive.
func LogFit(xs, ys []float64) (Fit, error) {
	lx := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return Fit{}, fmt.Errorf("stats: log fit requires x > 0, got %g", x)
		}
		lx[i] = math.Log(x)
	}
	a, b, err := leastSquares(lx, ys)
	if err != nil {
		return Fit{}, err
	}
	f := Fit{Kind: Logarithmic, A: a, B: b}
	f.AdjR2 = adjustedR2(xs, ys, f.Predict, 2)
	return f, nil
}

// leastSquares returns (intercept, slope) of the OLS line through
// (xs, ys).
func leastSquares(xs, ys []float64) (a, b float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, 0, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return 0, 0, fmt.Errorf("stats: degenerate fit, all x equal: %w", ErrInsufficientData)
	}
	b = sxy / sxx
	a = my - b*mx
	return a, b, nil
}

// adjustedR2 computes 1 − (1−R²)(n−1)/(n−p−1) for a model with p
// parameters; it is clamped below at −1 for pathological fits and returns
// 1 when the data has no variance and the model is exact.
func adjustedR2(xs, ys []float64, predict func(float64) float64, p int) float64 {
	n := len(xs)
	my := Mean(ys)
	var ssRes, ssTot float64
	for i := range xs {
		r := ys[i] - predict(xs[i])
		ssRes += r * r
		d := ys[i] - my
		ssTot += d * d
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return -1
	}
	r2 := 1 - ssRes/ssTot
	if n-p-1 <= 0 {
		return r2
	}
	adj := 1 - (1-r2)*float64(n-1)/float64(n-p-1)
	if adj < -1 {
		return -1
	}
	return adj
}
