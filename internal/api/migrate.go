package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Victim-selection policies accepted by ConsolidateRequest.Policy. They
// order which servers drain first and which VMs move first within a
// drain; both execute full evacuations under the same pay-for-itself
// rule.
const (
	// PolicyMinMigrationTime prefers the cheapest moves: servers with the
	// least resident memory drain first, smallest-memory VMs first
	// (migration time is proportional to memory, the MMT heuristic).
	PolicyMinMigrationTime = "min-migration-time"
	// PolicyMinUtilization drains the least CPU-utilised servers first,
	// lowest-demand VMs first.
	PolicyMinUtilization = "min-utilization"
)

// MigrationRecord is the uniform wire shape of one live migration. The
// same record type appears everywhere a migration is reported — the GET
// /v1/migrations history, the POST /v1/migrations and /v1/consolidate
// responses, and a vmgate's merged views — never a per-route variant.
type MigrationRecord struct {
	// Seq is the journal sequence number of the migrate record; migrations
	// are durable mutations and replay byte-identically.
	Seq int64 `json:"seq"`
	// VM is the migrated VM's ID.
	VM int `json:"vm"`
	// From and To are server IDs (not indexes).
	From int `json:"from"`
	To   int `json:"to"`
	// Time is the fleet minute the migration executed.
	Time int `json:"time"`
	// Handoff is the first minute the target hosts the VM: the minute
	// after Time for a started VM, the VM's own start otherwise.
	Handoff int `json:"handoff"`
	// Start and End are the VM's (start, end) identity — unchanged by the
	// migration, by construction.
	Start int `json:"start"`
	End   int `json:"end"`
	// Policy is the victim-selection policy of the consolidation pass that
	// planned the move, or "manual" for a direct POST /v1/migrations.
	Policy string `json:"policy,omitempty"`
	// SavedWattMinutes is the planner's net Eq. 17 estimate for the move
	// (a consolidation pass apportions its donor-drain saving evenly over
	// the drain's moves); 0 for manual migrations.
	SavedWattMinutes float64 `json:"savedWattMinutes"`
	// CostWattMinutes is the migration overhead the pay-for-itself rule
	// charged: cost-per-GB × the VM's memory demand.
	CostWattMinutes float64 `json:"costWattMinutes"`
	// Shard names the owning shard in vmgate-merged views; empty from a
	// single vmserve.
	Shard string `json:"shard,omitempty"`
}

// MigrateRequest is the body of POST /v1/migrations: move one resident VM
// to a named server now. The response is the resulting MigrationRecord.
type MigrateRequest struct {
	// VM is the resident VM to move; required.
	VM int `json:"vm"`
	// Server is the target server's ID (not index); required.
	Server *int `json:"server"`
}

// ConsolidateRequest is the body of POST /v1/consolidate. An empty body
// is valid: every field has a server-side default.
type ConsolidateRequest struct {
	// Policy overrides the configured victim-selection policy for this
	// pass (PolicyMinMigrationTime or PolicyMinUtilization).
	Policy string `json:"policy,omitempty"`
	// MaxMoves caps the number of migrations this pass may execute; 0
	// means unlimited.
	MaxMoves int `json:"maxMoves,omitempty"`
}

// ConsolidateResponse is the body of a successful POST /v1/consolidate:
// one pass's outcome. A pass that finds nothing worth moving is a
// success with zero moves — the pay-for-itself rule refusing a drain is
// the intended behaviour, not an error.
type ConsolidateResponse struct {
	// Clock is the fleet minute the pass ran at (a vmgate reports the
	// slowest shard's).
	Clock int `json:"clock"`
	// Policy is the victim-selection policy the pass used.
	Policy string `json:"policy"`
	// Donors is the number of under-utilised servers whose drain was
	// evaluated; Executed counts the migrations actually performed.
	Donors   int `json:"donors"`
	Executed int `json:"executed"`
	// EnergySavedWattMinutes is the summed net Eq. 17 saving of the
	// executed drains.
	EnergySavedWattMinutes float64 `json:"energySavedWattMinutes"`
	// Moves lists the executed migrations.
	Moves []MigrationRecord `json:"moves"`
}

// MigrationsResponse is the body of GET /v1/migrations. Count is the
// cluster-lifetime migration total; Migrations is the retained history
// (bounded, oldest evicted first), oldest first.
type MigrationsResponse struct {
	Count      int               `json:"count"`
	Migrations []MigrationRecord `json:"migrations"`
}

// DecodeMigrateRequest parses a POST /v1/migrations body. Both vmserve
// and vmgate decode migration bodies through this one function.
func DecodeMigrateRequest(data []byte) (MigrateRequest, error) {
	var req MigrateRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return req, fmt.Errorf("parse request: %w", err)
	}
	if req.VM < 1 {
		return req, fmt.Errorf("missing or invalid vm id %d", req.VM)
	}
	if req.Server == nil {
		return req, errors.New("missing target server")
	}
	return req, nil
}

// DecodeConsolidateRequest parses a POST /v1/consolidate body. An empty
// (or whitespace-only) body decodes to the zero request: all server-side
// defaults.
func DecodeConsolidateRequest(data []byte) (ConsolidateRequest, error) {
	var req ConsolidateRequest
	if len(bytes.TrimSpace(data)) == 0 {
		return req, nil
	}
	if err := json.Unmarshal(data, &req); err != nil {
		return req, fmt.Errorf("parse request: %w", err)
	}
	if req.Policy != "" && req.Policy != PolicyMinMigrationTime && req.Policy != PolicyMinUtilization {
		return req, fmt.Errorf("unknown policy %q (want %q or %q)", req.Policy, PolicyMinMigrationTime, PolicyMinUtilization)
	}
	if req.MaxMoves < 0 {
		return req, fmt.Errorf("negative maxMoves %d", req.MaxMoves)
	}
	return req, nil
}
