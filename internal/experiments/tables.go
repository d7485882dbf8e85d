package experiments

import (
	"context"
	"fmt"

	"vmalloc/internal/model"
)

// table1 reproduces paper Table I: the VM type catalog.
func table1(context.Context, Options) (*Result, error) {
	t := Table{
		Name:    "Table I",
		Caption: "VM types (Amazon EC2 first-generation instances; see DESIGN.md)",
		Header:  []string{"type", "class", "CPU (compute unit)", "memory (GBytes)"},
	}
	for _, vt := range model.VMTypeCatalog() {
		t.Rows = append(t.Rows, []string{vt.Name, string(vt.Class), num(vt.CPU), num(vt.Mem)})
	}
	return &Result{Tables: []Table{t}}, nil
}

// table2 reproduces paper Table II: the server type catalog.
func table2(context.Context, Options) (*Result, error) {
	t := Table{
		Name:    "Table II",
		Caption: "Server types (reconstructed per the paper's three rules; see DESIGN.md)",
		Header: []string{
			"type", "CPU (compute unit)", "memory (GBytes)",
			"P_idle (W)", "P_peak (W)", "P_idle/P_peak",
		},
	}
	for _, st := range model.ServerTypeCatalog() {
		t.Rows = append(t.Rows, []string{
			st.Name, num(st.CPU), num(st.Mem),
			num(st.PIdle), num(st.PPeak),
			fmt.Sprintf("%.0f%%", 100*st.IdlePeakRatio()),
		})
	}
	return &Result{Tables: []Table{t}}, nil
}
