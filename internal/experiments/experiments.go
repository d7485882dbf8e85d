// Package experiments reproduces every table and figure of the paper's
// evaluation (§IV) and the extension studies built on it. An experiment is
// one row of the registry below: an id, a title and a run function that
// emits the rows/series the paper reports, plus the curve fits (with
// adjusted R²) shown in the figure legends. §IV-C is one campaign shape —
// m VMs on m/2 servers over a sweep of mean inter-arrival times, 5 seeded
// runs per point, MinCost against FFPS — so Fig. 2–9 are parameter rows
// over a few shared shapes (figures.go).
//
// Run all of them with `go run ./cmd/vmsim -exp all`, or a single one with
// `-exp fig2`. Pass Options.Quick for a scaled-down sweep (used by the
// benchmarks and smoke tests).
package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"

	"vmalloc/internal/report"
)

// Paper parameter defaults, as reconstructed in DESIGN.md.
const (
	// DefaultMeanLength is the mean VM length in minutes (§IV-C).
	DefaultMeanLength = 50.0
	// DefaultTransition is the server transition time in minutes (§IV-C).
	DefaultTransition = 1.0
	// DefaultSeeds is the number of random runs each data point averages
	// ("Each simulation result is averaged over 5 random runs").
	DefaultSeeds = 5
)

// Options configures an experiment run.
type Options struct {
	// Seeds is the number of random runs per data point; 0 means
	// DefaultSeeds.
	Seeds int
	// Quick shrinks every sweep (fewer points, fewer seeds, smaller
	// workloads) for smoke tests and benchmarks.
	Quick bool
}

func (o Options) seeds() int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	if o.Quick {
		return 2
	}
	return DefaultSeeds
}

// interArrivals is the §IV-B sweep of mean inter-arrival times (minutes):
// "from 0.5 to 10".
func (o Options) interArrivals() []float64 {
	if o.Quick {
		return []float64{1, 4, 10}
	}
	return []float64{0.5, 1, 2, 4, 6, 8, 10}
}

// vmCounts is the §IV-C sweep of workload sizes: "from 100 to 500", with
// the number of servers set to half the VMs.
func (o Options) vmCounts() []int {
	if o.Quick {
		return []int{100}
	}
	return []int{100, 200, 300, 400, 500}
}

// Table is one emitted result table: a header row plus data rows, with a
// caption tying it back to the paper.
type Table struct {
	Name    string     `json:"name"`
	Caption string     `json:"caption"`
	Header  []string   `json:"header"`
	Rows    [][]string `json:"rows"`
	// Notes carry fit equations, skip counts and other annotations.
	Notes []string `json:"notes,omitempty"`
}

// WriteTo renders the table as aligned text.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "── %s ──\n%s\n", t.Name, t.Caption)
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return 0, err
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "  · %s\n", n)
	}
	sb.WriteString("\n")
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// CSV renders the table as RFC-4180-ish CSV (fields never contain commas
// or quotes in this module).
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Header, ","))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Result is everything an experiment produces.
type Result struct {
	ID     string         `json:"id"`
	Title  string         `json:"title"`
	Tables []Table        `json:"tables"`
	Charts []report.Chart `json:"charts,omitempty"`
}

// WriteTo renders all tables as text.
func (r *Result) WriteTo(w io.Writer) (int64, error) {
	var total int64
	n, err := fmt.Fprintf(w, "═══ %s — %s ═══\n\n", r.ID, r.Title)
	total += int64(n)
	if err != nil {
		return total, err
	}
	for i := range r.Tables {
		m, err := r.Tables[i].WriteTo(w)
		total += m
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Experiment reproduces one paper table or figure, or runs one extension
// study: a registry row.
type Experiment struct {
	// ID is the registry key, e.g. "fig2".
	ID string
	// Title summarises what the experiment reproduces.
	Title string
	run   func(ctx context.Context, opts Options) (*Result, error)
}

// Run executes the experiment.
func (e Experiment) Run(ctx context.Context, opts Options) (*Result, error) {
	res, err := e.run(ctx, opts)
	if err != nil {
		return nil, err
	}
	res.ID, res.Title = e.ID, e.Title
	return res, nil
}

// registry lists every experiment in presentation order: the paper's two
// catalog tables, Fig. 2–9 (figures.go holds their parameter rows), then
// the extension studies, one file each.
var registry = []Experiment{
	{"table1", "Table I — the types of resource demands of VMs", table1},
	{"table2", "Table II — the types of resource capacities and power consumption parameters of servers", table2},
	{"fig2", "Fig. 2 — energy reduction ratio vs mean inter-arrival time (all VM/server types)", fig2.run},
	{"fig3", "Fig. 3 — average CPU/memory utilisation vs mean inter-arrival time (100 VMs)", fig3.run},
	{"fig4", "Fig. 4 — energy reduction ratio vs memory load of the system", fig4},
	{"fig5", "Fig. 5 — impact of server transition time (100 VMs, 50 servers)", fig5.run},
	{"fig6", "Fig. 6 — impact of mean VM length (100 VMs, 50 servers)", fig6.run},
	{"fig7", "Fig. 7 — energy reduction ratio, standard VMs on server types 1-3", fig7.run},
	{"fig8", "Fig. 8 — average utilisation, 100 standard VMs (both fleets)", fig8.run},
	{"fig9", "Fig. 9 — energy reduction ratio vs system load (standard VMs)", fig9},
	{"optgap", "Extension — heuristic optimality gap vs exact ILP on small instances", optGap},
	{"ablation", "Extension — ablation of the heuristic's design choices", ablation},
	{"online", "Extension — event-driven allocation without clairvoyant transitions", onlineStudy},
	{"consolidation", "Extension — migration-based consolidation vs allocation-only", consolidation},
	{"sensitivity", "Extension — sensitivity to fleet composition and VM mix", sensitivity},
	{"scaling", "Extension — energy reduction against FFPS vs instance size", scaling},
	{"proportionality", "Extension — savings vs server energy-proportionality", proportionality},
	{"diurnal", "Extension — day/night arrival cycles vs flat Poisson arrivals", diurnal},
	{"localsearch", "Extension — local search on top of each allocator", localSearch},
}

// All returns every registered experiment in presentation order.
func All() []Experiment { return slices.Clone(registry) }

// ByID looks an experiment up; the id "all" is not resolved here.
func ByID(id string) (Experiment, error) {
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	slices.Sort(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %s)",
		id, strings.Join(ids, ", "))
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
func num(x float64) string { return fmt.Sprintf("%g", x) }
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func itoa(x int) string    { return fmt.Sprintf("%d", x) }

// kwm renders watt-minutes as kWmin.
func kwm(wattMinutes float64) string { return fmt.Sprintf("%.1f", wattMinutes/1000) }
