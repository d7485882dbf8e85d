package workload

import (
	"math"
	"math/rand"
	"testing"

	"vmalloc/internal/model"
)

func TestDiurnalSpecValidate(t *testing.T) {
	good := DiurnalSpec{NumVMs: 10, MeanInterArrival: 2, MeanLength: 30, PeakToTrough: 3, Period: 1440}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []DiurnalSpec{
		{NumVMs: 0, MeanInterArrival: 2, MeanLength: 30, PeakToTrough: 3, Period: 1440},
		{NumVMs: 10, MeanInterArrival: 0, MeanLength: 30, PeakToTrough: 3, Period: 1440},
		{NumVMs: 10, MeanInterArrival: 2, MeanLength: 0, PeakToTrough: 3, Period: 1440},
		{NumVMs: 10, MeanInterArrival: 2, MeanLength: 30, PeakToTrough: 0.5, Period: 1440},
		{NumVMs: 10, MeanInterArrival: 2, MeanLength: 30, PeakToTrough: 3, Period: 0},
		{NumVMs: 10, MeanInterArrival: math.NaN(), MeanLength: 30, PeakToTrough: 3, Period: 1440},
		{NumVMs: 10, MeanInterArrival: 2, MeanLength: 30, PeakToTrough: math.NaN(), Period: 1440},
		{NumVMs: 10, MeanInterArrival: 2, MeanLength: 30, PeakToTrough: 3, Period: math.NaN()},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestDiurnalMeanRateMatchesFlat(t *testing.T) {
	// The day-average inter-arrival must match the flat process.
	spec := DiurnalSpec{
		NumVMs: 8000, MeanInterArrival: 2, MeanLength: 10,
		PeakToTrough: 4, Period: 720,
	}
	vms, err := spec.VMs(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	meanIA := float64(vms[len(vms)-1].Start) / float64(len(vms))
	if math.Abs(meanIA-2) > 0.2 {
		t.Errorf("mean inter-arrival %.2f, want ≈2", meanIA)
	}
}

func TestDiurnalConcentratesArrivals(t *testing.T) {
	// With a strong cycle, arrivals bunch into the high-rate half-period:
	// the variance of per-bucket counts must clearly exceed the flat
	// process's.
	countVariance := func(vms []model.VM, bucket int) float64 {
		counts := map[int]int{}
		maxB := 0
		for _, v := range vms {
			b := v.Start / bucket
			counts[b]++
			if b > maxB {
				maxB = b
			}
		}
		var mean float64
		for b := 0; b <= maxB; b++ {
			mean += float64(counts[b])
		}
		mean /= float64(maxB + 1)
		var ss float64
		for b := 0; b <= maxB; b++ {
			d := float64(counts[b]) - mean
			ss += d * d
		}
		return ss / float64(maxB+1)
	}
	flatSpec := Spec{NumVMs: 4000, MeanInterArrival: 2, MeanLength: 10}
	flat, err := flatSpec.VMs(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	diurnalSpec := DiurnalSpec{
		NumVMs: 4000, MeanInterArrival: 2, MeanLength: 10,
		PeakToTrough: 6, Period: 480,
	}
	diurnal, err := diurnalSpec.VMs(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	vFlat := countVariance(flat, 120)
	vDiurnal := countVariance(diurnal, 120)
	if vDiurnal < 2*vFlat {
		t.Errorf("diurnal bucket variance %.1f not clearly above flat %.1f", vDiurnal, vFlat)
	}
}

func TestDiurnalDegeneratesToFlat(t *testing.T) {
	// PeakToTrough = 1 → a = 0 → plain Poisson; statistics must match the
	// flat generator's within tolerance.
	spec := DiurnalSpec{
		NumVMs: 5000, MeanInterArrival: 3, MeanLength: 7,
		PeakToTrough: 1, Period: 1440,
	}
	vms, err := spec.VMs(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	meanIA := float64(vms[len(vms)-1].Start) / float64(len(vms))
	if math.Abs(meanIA-3) > 0.3 {
		t.Errorf("degenerate mean inter-arrival %.2f, want ≈3", meanIA)
	}
}

func TestGenerateDiurnal(t *testing.T) {
	spec := DiurnalSpec{
		NumVMs: 50, MeanInterArrival: 2, MeanLength: 30,
		PeakToTrough: 3, Period: 240,
	}
	fleet := FleetSpec{NumServers: 25, TransitionTime: 1}
	a, err := GenerateDiurnal(spec, fleet, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDiurnal(spec, fleet, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.VMs {
		if a.VMs[i] != b.VMs[i] {
			t.Fatal("same seed produced different diurnal instances")
		}
	}
	if _, err := GenerateDiurnal(DiurnalSpec{}, fleet, 1); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := GenerateDiurnal(spec, FleetSpec{}, 1); err == nil {
		t.Error("invalid fleet accepted")
	}
}
