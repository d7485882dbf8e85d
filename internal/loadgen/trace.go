package loadgen

import (
	"fmt"

	"vmalloc/internal/model"
)

// TraceSchedule maps a VM trace (the internal/trace CSV shape: validated
// model.VMs with explicit IDs and [Start, End] lifetimes) onto the
// runner's operation timeline, so real request logs replay through the
// service exactly like the synthetic §IV-B schedules: one admission per
// VM at its start minute, no early releases (a trace's End is the
// natural departure the server's clock processes), the horizon at the
// last end. IDs must be unique and >= 1 — they are the idempotency and
// routing keys — but may be sparse. Within a minute admissions go in ID
// order, so the replayed request stream (and the outcome digest) is a
// pure function of the trace's contents, not of its row order.
func TraceSchedule(vms []model.VM) (*Schedule, error) {
	if len(vms) == 0 {
		return nil, fmt.Errorf("loadgen: empty trace")
	}
	seen := make(map[int]bool, len(vms))
	for i, v := range vms {
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("loadgen: trace vm %d: %w", i, err)
		}
		if v.ID < 1 {
			return nil, fmt.Errorf("loadgen: trace vm %d has id %d, want >= 1 (the replay key)", i, v.ID)
		}
		if seen[v.ID] {
			return nil, fmt.Errorf("loadgen: trace vm id %d appears twice", v.ID)
		}
		seen[v.ID] = true
	}
	return newSchedule(vms, nil), nil
}
