package experiments

import (
	"context"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from the current output")

func TestRegistry(t *testing.T) {
	all := All()
	wantIDs := []string{
		"table1", "table2", "fig2", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig8", "fig9", "optgap", "ablation",
		"online", "consolidation", "sensitivity", "scaling", "proportionality", "diurnal",
		"localsearch",
	}
	if len(all) != len(wantIDs) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(wantIDs))
	}
	for i, e := range all {
		if e.ID != wantIDs[i] {
			t.Errorf("experiment %d has ID %q, want %q", i, e.ID, wantIDs[i])
		}
		if e.Title == "" {
			t.Errorf("experiment %q has empty title", e.ID)
		}
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%q) = %v, %v", e.ID, got, err)
		}
	}
	if _, err := ByID("nonexistent"); err == nil {
		t.Error("ByID of unknown id must error")
	}
}

func TestTablesRun(t *testing.T) {
	for _, id := range []string{"table1", "table2"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Tables) != 1 {
			t.Fatalf("%s: %d tables", id, len(res.Tables))
		}
		tab := res.Tables[0]
		wantRows := 9
		if id == "table2" {
			wantRows = 5
		}
		if len(tab.Rows) != wantRows {
			t.Errorf("%s: %d rows, want %d", id, len(tab.Rows), wantRows)
		}
		var sb strings.Builder
		if _, err := res.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), tab.Name) {
			t.Errorf("%s: rendered output missing table name", id)
		}
		if csv := tab.CSV(); !strings.HasPrefix(csv, strings.Join(tab.Header, ",")) {
			t.Errorf("%s: CSV missing header", id)
		}
	}
}

// TestAllExperimentsQuick runs every experiment in quick mode, checks
// structural invariants of the outputs, and pins the rendered text of all
// of them to testdata/quick.golden: "the same numbers" means this file does
// not move. Regenerate with `go test ./internal/experiments -run Quick -update`
// only when a number is meant to change.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still runs full simulations")
	}
	ctx := context.Background()
	var rendered strings.Builder
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(ctx, Options{Quick: true})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.ID != e.ID {
				t.Errorf("result ID %q != %q", res.ID, e.ID)
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range res.Tables {
				if len(tab.Header) == 0 || len(tab.Rows) == 0 {
					t.Fatalf("table %q empty", tab.Name)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Header) {
						t.Fatalf("table %q: row width %d != header width %d",
							tab.Name, len(row), len(tab.Header))
					}
				}
			}
			if _, err := res.WriteTo(&rendered); err != nil {
				t.Fatal(err)
			}
		})
	}
	if t.Failed() {
		return
	}
	const golden = "testdata/quick.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(rendered.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got := rendered.String()
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gotLines), len(wantLines)); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("quick output differs from %s at line %d:\n got: %s\nwant: %s",
				golden, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("quick output is %d lines, %s has %d", len(gotLines), golden, len(wantLines))
}

func TestOptionsDefaults(t *testing.T) {
	if got := (Options{}).seeds(); got != DefaultSeeds {
		t.Errorf("default seeds = %d", got)
	}
	if got := (Options{Quick: true}).seeds(); got != 2 {
		t.Errorf("quick seeds = %d", got)
	}
	if got := (Options{Seeds: 9}).seeds(); got != 9 {
		t.Errorf("explicit seeds = %d", got)
	}
	if got := len((Options{Quick: true}).interArrivals()); got != 3 {
		t.Errorf("quick inter-arrivals = %d", got)
	}
	if got := len((Options{}).vmCounts()); got != 5 {
		t.Errorf("full vm counts = %d", got)
	}
}

// TestSensitivitySeeds: the study raises only the default seed count to
// 10 (its confidence intervals need more than the paper's 5 runs); a seed
// count the caller asked for is what runs.
func TestSensitivitySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full sensitivity study three times")
	}
	e, err := ByID("sensitivity")
	if err != nil {
		t.Fatal(err)
	}
	render := func(opts Options) string {
		res, err := e.Run(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if _, err := res.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	ten := render(Options{Seeds: 10})
	if render(Options{}) != ten {
		t.Error("default run differs from an explicit 10 seeds")
	}
	if render(Options{Seeds: 7}) == ten {
		t.Error("-seeds 7 printed the 10-seed table: the explicit count was overridden")
	}
}
