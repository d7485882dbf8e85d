package config

import (
	"context"
	"strings"
	"testing"

	"vmalloc/internal/baseline"
	"vmalloc/internal/sim"
	"vmalloc/internal/workload"
)

const validJSON = `{
  "name": "test",
  "workload": {"numVMs": 40, "meanInterArrivalMinutes": 2, "meanLengthMinutes": 30},
  "fleet": {"numServers": 20, "transitionTimeMinutes": 1},
  "seeds": 2,
  "allocators": ["mincost", "ffps", "bestfit"]
}`

func TestLoadValid(t *testing.T) {
	c, err := Load(strings.NewReader(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "test" || c.Seeds != 2 || len(c.Allocators) != 3 {
		t.Errorf("loaded = %+v", c)
	}
}

func TestLoadErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"not json", "{"},
		{"unknown field", `{"bogus": 1}`},
		{"trailing data", validJSON + "garbage"},
		{"bad workload", `{"workload": {"numVMs": 0}, "fleet": {"numServers": 1}}`},
		{"bad fleet", `{"workload": {"numVMs": 1, "meanInterArrivalMinutes": 1, "meanLengthMinutes": 1}, "fleet": {"numServers": 0}}`},
		{"unknown allocator", `{
			"workload": {"numVMs": 10, "meanInterArrivalMinutes": 1, "meanLengthMinutes": 5},
			"fleet": {"numServers": 5},
			"allocators": ["nope"]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tt.in)); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestValidateDefaults(t *testing.T) {
	c, err := Load(strings.NewReader(`{
		"workload": {"numVMs": 10, "meanInterArrivalMinutes": 1, "meanLengthMinutes": 5},
		"fleet": {"numServers": 10, "transitionTimeMinutes": 1}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "custom" || c.Seeds != 5 {
		t.Errorf("defaults not applied: %+v", c)
	}
	if len(c.Allocators) != 2 || c.Allocators[0] != "mincost" {
		t.Errorf("default allocators = %v", c.Allocators)
	}
}

// Every name the registry lists is a valid campaign allocator, and the
// unknown-allocator error names them all.
func TestAllocatorNamesComplete(t *testing.T) {
	c, err := Load(strings.NewReader(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	c.Allocators = baseline.Names()
	if err := c.Validate(); err != nil {
		t.Errorf("registry names rejected: %v", err)
	}
	c.Allocators = []string{"nope"}
	err = c.Validate()
	if err == nil || !strings.Contains(err.Error(), strings.Join(baseline.Names(), ", ")) {
		t.Errorf("err = %v, want the registry's names", err)
	}
}

func TestRunEndToEnd(t *testing.T) {
	c, err := Load(strings.NewReader(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 {
		t.Fatalf("rows = %d", len(out.Rows))
	}
	if out.Rows[0].VsFirst != 1 {
		t.Errorf("first row VsFirst = %g", out.Rows[0].VsFirst)
	}
	for _, row := range out.Rows {
		if row.Energy <= 0 || row.ServersUsed < 1 {
			t.Errorf("row %+v implausible", row)
		}
	}
	// mincost (first) should not lose to ffps (second).
	if out.Rows[1].VsFirst < 1 {
		t.Errorf("ffps beat mincost: %+v", out.Rows[1])
	}
	var sb strings.Builder
	if err := out.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "mincost") || !strings.Contains(sb.String(), "Wmin") {
		t.Errorf("text output:\n%s", sb.String())
	}
}

func TestRunContextCancelled(t *testing.T) {
	c, err := Load(strings.NewReader(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx); err == nil {
		t.Error("want context error")
	}
}

func TestRunAllInfeasible(t *testing.T) {
	c := &Campaign{Config: sim.Config{
		Workload:       workloadSpecHuge(),
		Fleet:          fleetTiny(),
		Seeds:          2,
		Allocators:     []string{"mincost"},
		SkipInfeasible: true,
	}}
	if _, err := c.Run(context.Background()); err == nil {
		t.Error("want error when every seed is infeasible")
	}
}

func workloadSpecHuge() workload.Spec {
	return workload.Spec{NumVMs: 100, MeanInterArrival: 0.05, MeanLength: 500}
}

func fleetTiny() workload.FleetSpec {
	return workload.FleetSpec{NumServers: 1, TransitionTime: 1, Types: []string{"type-1"}}
}
