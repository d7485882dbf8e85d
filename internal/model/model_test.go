package model

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestResourcesFits(t *testing.T) {
	tests := []struct {
		name string
		r, c Resources
		want bool
	}{
		{"fits exactly", Resources{4, 8}, Resources{4, 8}, true},
		{"fits strictly", Resources{1, 1}, Resources{4, 8}, true},
		{"cpu too big", Resources{5, 1}, Resources{4, 8}, false},
		{"mem too big", Resources{1, 9}, Resources{4, 8}, false},
		{"both too big", Resources{5, 9}, Resources{4, 8}, false},
		{"zero fits", Resources{}, Resources{4, 8}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.r.Fits(tt.c); got != tt.want {
				t.Errorf("Fits(%v, %v) = %v, want %v", tt.r, tt.c, got, tt.want)
			}
		})
	}
}

func TestResourcesAddSub(t *testing.T) {
	a := Resources{CPU: 3, Mem: 5}
	b := Resources{CPU: 1, Mem: 2}
	if got := a.Add(b); got != (Resources{CPU: 4, Mem: 7}) {
		t.Errorf("Add = %v", got)
	}
	if a.IsZero() || !(Resources{}).IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestResourcesAddSubRoundTrip(t *testing.T) {
	f := func(ac, am, bc, bm float64) bool {
		a := Resources{CPU: ac, Mem: am}
		b := Resources{CPU: bc, Mem: bm}
		got := a.Add(b)
		return almostEqual(got.CPU-b.CPU, a.CPU) && almostEqual(got.Mem-b.Mem, a.Mem)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestUsage: each minute is the direct sum of the demands running then, so
// the minutes after the last VM ends are exactly zero, also when the sums
// reuse a longer buffer that holds another server's.
func TestUsage(t *testing.T) {
	a, b, c := Resources{CPU: 0.1, Mem: 0.7}, Resources{CPU: 0.2, Mem: 1.7}, Resources{CPU: 3.75, Mem: 7.5}
	vms := []VM{
		{ID: 1, Demand: a, Start: 2, End: 3},
		{ID: 2, Demand: b, Start: 3, End: 5},
		{ID: 3, Demand: c, Start: 7, End: 7},
	}
	want := []Resources{{}, {}, a, a.Add(b), b, b, {}, c}
	dirty := Usage(nil, []VM{{ID: 4, Demand: c, Start: 1, End: 12}})
	for name, use := range map[string][]Resources{"fresh": Usage(nil, vms), "reused": Usage(dirty, vms)} {
		if len(use) != len(want) {
			t.Fatalf("%s: Usage has %d minutes, want %d", name, len(use), len(want))
		}
		for m := range want {
			if use[m] != want[m] {
				t.Errorf("%s: minute %d: %v, want %v", name, m, use[m], want[m])
			}
		}
	}
	if &dirty[0] != &Usage(dirty, vms)[0] {
		t.Error("Usage did not reuse a buffer long enough")
	}
	if len(Usage(nil, nil)) != 1 {
		t.Error("Usage(nil, nil) is not the single minute 0")
	}
}

func almostEqual(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return true // quick feeds NaN; Add/Sub on NaN is out of scope
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

func TestVMDuration(t *testing.T) {
	tests := []struct {
		start, end, want int
	}{
		{1, 1, 1},
		{1, 10, 10},
		{5, 7, 3},
	}
	for _, tt := range tests {
		v := VM{Start: tt.start, End: tt.end}
		if got := v.Duration(); got != tt.want {
			t.Errorf("Duration(%d,%d) = %d, want %d", tt.start, tt.end, got, tt.want)
		}
	}
}

func TestVMValidate(t *testing.T) {
	valid := VM{ID: 1, Demand: Resources{CPU: 1, Mem: 1}, Start: 1, End: 5}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid VM rejected: %v", err)
	}
	tests := []struct {
		name string
		vm   VM
	}{
		{"zero start", VM{ID: 1, Demand: Resources{1, 1}, Start: 0, End: 5}},
		{"end before start", VM{ID: 1, Demand: Resources{1, 1}, Start: 5, End: 4}},
		{"zero cpu", VM{ID: 1, Demand: Resources{0, 1}, Start: 1, End: 5}},
		{"zero mem", VM{ID: 1, Demand: Resources{1, 0}, Start: 1, End: 5}},
		{"negative cpu", VM{ID: 1, Demand: Resources{-1, 1}, Start: 1, End: 5}},
		{"NaN cpu", VM{ID: 1, Demand: Resources{math.NaN(), 1}, Start: 1, End: 5}},
		{"Inf mem", VM{ID: 1, Demand: Resources{1, math.Inf(1)}, Start: 1, End: 5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.vm.Validate(); err == nil {
				t.Errorf("Validate(%+v) = nil, want error", tt.vm)
			}
		})
	}
}

func TestServerDerivedQuantities(t *testing.T) {
	s := Server{
		ID:             1,
		Capacity:       Resources{CPU: 10, Mem: 16},
		PIdle:          100,
		PPeak:          200,
		TransitionTime: 2,
	}
	if got := s.TransitionCost(); got != 400 {
		t.Errorf("TransitionCost = %g, want 400", got)
	}
	if got := s.UnitCPUPower(); got != 10 {
		t.Errorf("UnitCPUPower = %g, want 10", got)
	}
	if got := s.Power(0); got != 100 {
		t.Errorf("Power(0) = %g, want 100 (idle)", got)
	}
	if got := s.Power(1); got != 200 {
		t.Errorf("Power(1) = %g, want 200 (peak)", got)
	}
	if got := s.Power(0.5); got != 150 {
		t.Errorf("Power(0.5) = %g, want 150", got)
	}
}

func TestServerValidate(t *testing.T) {
	valid := Server{ID: 1, Capacity: Resources{CPU: 4, Mem: 8}, PIdle: 80, PPeak: 160}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid server rejected: %v", err)
	}
	tests := []struct {
		name string
		srv  Server
	}{
		{"zero cpu", Server{ID: 1, Capacity: Resources{0, 8}, PIdle: 80, PPeak: 160}},
		{"zero mem", Server{ID: 1, Capacity: Resources{4, 0}, PIdle: 80, PPeak: 160}},
		{"negative idle", Server{ID: 1, Capacity: Resources{4, 8}, PIdle: -1, PPeak: 160}},
		{"peak below idle", Server{ID: 1, Capacity: Resources{4, 8}, PIdle: 80, PPeak: 70}},
		{"negative transition", Server{ID: 1, Capacity: Resources{4, 8}, PIdle: 80, PPeak: 160, TransitionTime: -1}},
		{"NaN idle", Server{ID: 1, Capacity: Resources{4, 8}, PIdle: math.NaN(), PPeak: 160}},
		{"Inf peak", Server{ID: 1, Capacity: Resources{4, 8}, PIdle: 80, PPeak: math.Inf(1)}},
		{"NaN capacity", Server{ID: 1, Capacity: Resources{math.NaN(), 8}, PIdle: 80, PPeak: 160}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.srv.Validate(); err == nil {
				t.Errorf("Validate(%+v) = nil, want error", tt.srv)
			}
		})
	}
}

func TestNewInstanceComputesHorizon(t *testing.T) {
	vms := []VM{
		{ID: 1, Demand: Resources{1, 1}, Start: 1, End: 7},
		{ID: 2, Demand: Resources{1, 1}, Start: 3, End: 12},
	}
	servers := []Server{{ID: 1, Capacity: Resources{4, 8}, PIdle: 80, PPeak: 160}}
	inst := NewInstance(vms, servers)
	if inst.Horizon != 12 {
		t.Errorf("Horizon = %d, want 12", inst.Horizon)
	}
	if err := inst.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// NewInstance must copy its inputs.
	vms[0].Start = 99
	if inst.VMs[0].Start == 99 {
		t.Error("NewInstance aliased the caller's VM slice")
	}
}

func TestInstanceValidateErrors(t *testing.T) {
	srv := Server{ID: 1, Capacity: Resources{4, 8}, PIdle: 80, PPeak: 160}
	vm := VM{ID: 1, Demand: Resources{1, 1}, Start: 1, End: 5}

	t.Run("empty", func(t *testing.T) {
		if err := (Instance{}).Validate(); !errors.Is(err, ErrEmptyInstance) {
			t.Errorf("got %v, want ErrEmptyInstance", err)
		}
	})
	t.Run("duplicate vm id", func(t *testing.T) {
		inst := NewInstance([]VM{vm, vm}, []Server{srv})
		if err := inst.Validate(); err == nil {
			t.Error("want error for duplicate vm id")
		}
	})
	t.Run("duplicate server id", func(t *testing.T) {
		inst := NewInstance([]VM{vm}, []Server{srv, srv})
		if err := inst.Validate(); err == nil {
			t.Error("want error for duplicate server id")
		}
	})
	t.Run("vm beyond horizon", func(t *testing.T) {
		inst := NewInstance([]VM{vm}, []Server{srv})
		inst.Horizon = 3
		if err := inst.Validate(); err == nil {
			t.Error("want error for VM ending beyond horizon")
		}
	})
}

func TestInstanceLookups(t *testing.T) {
	inst := NewInstance(
		[]VM{{ID: 7, Demand: Resources{1, 1}, Start: 1, End: 2}},
		[]Server{{ID: 3, Capacity: Resources{4, 8}, PIdle: 80, PPeak: 160}},
	)
	if _, ok := inst.VMByID(7); !ok {
		t.Error("VMByID(7) not found")
	}
	if _, ok := inst.VMByID(8); ok {
		t.Error("VMByID(8) unexpectedly found")
	}
	if _, ok := inst.ServerByID(3); !ok {
		t.Error("ServerByID(3) not found")
	}
	if _, ok := inst.ServerByID(4); ok {
		t.Error("ServerByID(4) unexpectedly found")
	}
}

func TestInstanceJSONRoundTrip(t *testing.T) {
	inst := NewInstance(
		[]VM{{ID: 1, Type: "standard-1", Demand: Resources{CPU: 1, Mem: 1.7}, Start: 1, End: 9}},
		[]Server{ServerTypeCatalog()[0].NewServer(1, 1)},
	)
	data, err := json.Marshal(inst)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var got Instance
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Horizon != inst.Horizon || len(got.VMs) != 1 || len(got.Servers) != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.VMs[0] != inst.VMs[0] {
		t.Errorf("VM round trip: got %+v want %+v", got.VMs[0], inst.VMs[0])
	}
	if got.Servers[0] != inst.Servers[0] {
		t.Errorf("Server round trip: got %+v want %+v", got.Servers[0], inst.Servers[0])
	}
}
