package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanAndStdDev(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g", got)
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %g, want 4", got)
	}
	if got := StdDev([]float64{5}); got != 0 {
		t.Errorf("StdDev single = %g", got)
	}
	if got := StdDev([]float64{2, 4, 6}); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %g, want 2", got)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	f, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.A-3) > 1e-9 || math.Abs(f.B-2) > 1e-9 {
		t.Errorf("fit = (%g, %g), want (3, 2)", f.A, f.B)
	}
	if math.Abs(f.AdjR2-1) > 1e-9 {
		t.Errorf("AdjR2 = %g, want 1", f.AdjR2)
	}
	if got := f.Predict(10); math.Abs(got-23) > 1e-9 {
		t.Errorf("Predict(10) = %g, want 23", got)
	}
}

func TestLinearFitRecoversSlopeUnderNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := float64(i) / 10
		xs = append(xs, x)
		ys = append(ys, 1+0.5*x+rng.NormFloat64()*0.1)
	}
	f, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.B-0.5) > 0.02 {
		t.Errorf("slope = %g, want ≈0.5", f.B)
	}
	if f.AdjR2 < 0.95 {
		t.Errorf("AdjR2 = %g, want >0.95", f.AdjR2)
	}
}

func TestLogFit(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2 - 0.3*math.Log(x)
	}
	f, err := LogFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.A-2) > 1e-9 || math.Abs(f.B+0.3) > 1e-9 {
		t.Errorf("fit = (%g, %g), want (2, -0.3)", f.A, f.B)
	}
	if _, err := LogFit([]float64{0, 1}, []float64{1, 2}); err == nil {
		t.Error("want error for x <= 0")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("single point: %v", err)
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("want error for length mismatch")
	}
	if _, err := LinearFit([]float64{3, 3, 3}, []float64{1, 2, 3}); !errors.Is(err, ErrInsufficientData) {
		t.Error("want ErrInsufficientData for constant x")
	}
}

func TestFitStrings(t *testing.T) {
	for _, k := range []FitKind{Linear, Logarithmic} {
		f := Fit{Kind: k, A: 1, B: 2, AdjR2: 0.9}
		if f.String() == "" || k.String() == "" {
			t.Errorf("empty String for kind %d", k)
		}
	}
	if FitKind(99).String() != "FitKind(99)" {
		t.Errorf("unknown kind String = %q", FitKind(99).String())
	}
}

// Property: a linear fit through any non-degenerate data passes through
// the centroid (mean x, mean y).
func TestLinearFitCentroidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			ys[i] = rng.Float64() * 100
		}
		fit, err := LinearFit(xs, ys)
		if err != nil {
			return true // degenerate draw
		}
		return math.Abs(fit.Predict(Mean(xs))-Mean(ys)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: adjusted R² never exceeds 1.
func TestAdjR2UpperBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = 0.1 + rng.Float64()*50
			ys[i] = rng.Float64() * 10
		}
		for _, fit := range []func([]float64, []float64) (Fit, error){LinearFit, LogFit} {
			if f, err := fit(xs, ys); err == nil && f.AdjR2 > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
