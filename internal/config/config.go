// Package config lets users describe their own simulation campaigns as
// JSON — workload, fleet, seed count and a list of allocators by name —
// and run them without writing Go. It backs `vmsim -config`.
//
// Example:
//
//	{
//	  "name": "my-datacenter",
//	  "workload": {"numVMs": 200, "meanInterArrivalMinutes": 1.5, "meanLengthMinutes": 45},
//	  "fleet": {"numServers": 80, "transitionTimeMinutes": 2},
//	  "seeds": 5,
//	  "allocators": ["mincost", "ffps", "bestfit"]
//	}
package config

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"vmalloc/internal/baseline"
	"vmalloc/internal/sim"
)

// Campaign is a user-defined comparison run: a named simulation campaign.
type Campaign struct {
	Name string `json:"name"`
	sim.Config
}

// Load parses and validates a campaign.
func Load(r io.Reader) (*Campaign, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Campaign
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("config: trailing data after the campaign object")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Validate checks the campaign.
func (c *Campaign) Validate() error {
	if c.Name == "" {
		c.Name = "custom"
	}
	if err := c.Workload.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if err := c.Fleet.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if c.Seeds < 1 {
		c.Seeds = 5
	}
	if len(c.Allocators) == 0 {
		c.Allocators = sim.DefaultLineup
	}
	for _, name := range c.Allocators {
		if _, err := baseline.Lookup(name); err != nil {
			return fmt.Errorf("config: %w", err)
		}
	}
	return nil
}

// AllocatorRow is one allocator's outcome averaged over the seeds.
type AllocatorRow struct {
	sim.AllocatorSummary
	// VsFirst is this row's energy relative to the first allocator's
	// (1.0 = equal).
	VsFirst float64 `json:"vsFirst"`
}

// Outcome is a completed campaign.
type Outcome struct {
	Campaign *Campaign      `json:"campaign"`
	Rows     []AllocatorRow `json:"rows"`
	Skipped  int            `json:"skipped,omitempty"`
}

// Run executes the campaign on the simulation runner: every allocator sees
// the identical seeded instances (each built with the instance's seed), and
// with SkipInfeasible a seed is dropped for all allocators if any fails on
// it, keeping the comparison paired.
func (c *Campaign) Run(ctx context.Context) (*Outcome, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	sum, err := sim.Run(ctx, c.Config)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	out := &Outcome{Campaign: c, Skipped: sum.Skipped}
	for _, a := range sum.Allocators {
		row := AllocatorRow{AllocatorSummary: a}
		if first := sum.Allocators[0].Energy; first > 0 {
			row.VsFirst = a.Energy / first
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// WriteText renders the outcome as an aligned comparison table.
func (o *Outcome) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "campaign %q: %d VMs on %d servers, %d seed(s)",
		o.Campaign.Name, o.Campaign.Workload.NumVMs, o.Campaign.Fleet.NumServers,
		o.Campaign.Seeds-o.Skipped); err != nil {
		return err
	}
	if o.Skipped > 0 {
		if _, err := fmt.Fprintf(w, " (%d infeasible seed(s) skipped)", o.Skipped); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, row := range o.Rows {
		if _, err := fmt.Fprintf(w, "  %-22s %12.1f Wmin  x%.3f  servers %5.1f  util %4.1f%%/%4.1f%%\n",
			row.Name, row.Energy, row.VsFirst, row.ServersUsed,
			100*row.Utilization.CPU, 100*row.Utilization.Mem); err != nil {
			return err
		}
		if st := row.Stats; st.CandidatesEvaluated > 0 {
			if _, err := fmt.Fprintf(w, "  %22s %d candidates (%d rejected), scan %v + commit %v\n",
				"", st.CandidatesEvaluated, st.FeasibilityRejections,
				st.ScanWall.Round(time.Millisecond), st.CommitWall.Round(time.Millisecond)); err != nil {
				return err
			}
		}
	}
	return nil
}
