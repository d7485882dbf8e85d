// Package api is the versioned wire contract of the /v1 HTTP API that
// vmserve and vmgate serve: the typed request/response bodies, the
// structured error envelope, and the HTTP edge both daemons read and
// write through (edge.go). It is the single source of truth for the JSON
// field names: the cluster itself speaks these types, the servers
// (internal/clusterhttp, internal/shard) and every client
// (internal/loadgen, bench/) marshal the same Go values, so a router can
// sit between the two and speak the same contract on both sides.
//
// The endpoint table — the one copy; README.md and DESIGN.md link here.
// S is a vmserve (one cluster), G a vmgate (the same surface over N
// shards, and what it does with the call):
//
//	POST   /v1/vms             AdmitRequest or [AdmitRequest] → [AdmitResponse], in request
//	                           order; G splits by owner(id), so ids are required there
//	DELETE /v1/vms/{id}        → ReleaseResponse; G routes to the owner; not_resident
//	POST   /v1/clock           ClockRequest → ClockResponse; G fans out, slowest clock
//	POST   /v1/migrations      MigrateRequest → MigrationRecord; G routes to the owner;
//	                           not_resident, migration_infeasible
//	GET    /v1/migrations      ?vm= ?limit= → MigrationsResponse; G merges, stamps shard
//	POST   /v1/adoptions       AdoptRequest → AdoptResponse; S only (G's rebalancer is
//	                           the caller); migration_infeasible
//	POST   /v1/consolidate     ConsolidateRequest (empty body valid) → ConsolidateResponse;
//	                           G fans out and merges; consolidation_busy
//	GET    /v1/state           → StateResponse (G: GateStateResponse), StateDigestHeader set
//	GET    /v1/debug/decisions ?vm= ?server= ?op= ?limit= → DecisionsResponse; S only
//	GET    /v1/debug/traces    ?trace= ?name= ?op= ?min= ?limit= → TracesResponse; G stitches
//	GET    /v1/debug/energy    ?since= ?limit= → EnergyResponse (G: GateEnergyResponse)
//	GET    /v1/shards          → ShardsResponse; G only
//	GET    /v1/topology        → TopologyResponse; G only
//	POST   /v1/topology        Topology → TopologyResponse; G only; stale_epoch, rebalancing
//	GET    /healthz            "ok" (G: 503 shard_down while any shard is down)
//	GET    /metrics            Prometheus text, written by internal/obs alone
//
// Every non-2xx answer is an ErrorEnvelope carrying one of the Code*
// constants (error.go gives each one's status and meaning) and the
// request's X-Request-Id. Beyond the codes named per route, any route can
// answer bad_request (400; 413 for a body over MaxBodyBytes) and internal,
// any mutation journal_broken or overloaded, any request stamped with a
// superseded EpochHeader stale_epoch, and any G route shard_down.
//
// The package is deliberately a leaf: it depends only on the pure data
// packages (internal/model, internal/energy) and the observability
// records (internal/obs), never on the cluster itself, so a routing
// daemon can link the contract without linking an allocator.
//
// Compatibility: the JSON field names are frozen (see the pin tests in
// wire_test.go). Decoding is tolerant of unknown fields, so additive
// evolution within /v1 is safe; renames or removals require a /v2. (The
// one-pass readers of the admit pair and the state, admit_codec.go and
// state_codec.go, know only today's keys; a body with any other falls back
// to encoding/json, which tolerates it.)
package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"vmalloc/internal/energy"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
)

// Version is the API version every path in this contract is mounted
// under (e.g. POST /v1/vms).
const Version = "v1"

// StateDigestHeader is the response header on GET /v1/state carrying the
// hex SHA-256 of the body — a single shard's digest from vmserve, the
// combined digest (shard.CombineDigests) from a vmgate.
const StateDigestHeader = "X-Vmalloc-State-Digest"

// AdmitRequest is one VM admission request — the element type of the
// POST /v1/vms body, which is either a single object or an array of
// them.
type AdmitRequest struct {
	// ID identifies the VM; 0 lets the cluster assign the next free ID.
	// Requests routed through a vmgate must carry an explicit ID: the
	// ID is the routing key.
	ID int `json:"id,omitempty"`
	// Type is an optional free-form label.
	Type string `json:"type,omitempty"`
	// Demand is the VM's stable resource demand.
	Demand model.Resources `json:"demand"`
	// Start is the requested start minute; 0 means "now", and a start in
	// the past is clamped to the current clock.
	Start int `json:"start,omitempty"`
	// DurationMinutes is how long the VM runs; must be ≥ 1.
	DurationMinutes int `json:"durationMinutes"`
}

// AdmitResponse is the per-request outcome of an admission call; POST
// /v1/vms responds with an array of them, in request order.
type AdmitResponse struct {
	// ID is the VM's identity (assigned by the cluster when the request
	// left it 0).
	ID int `json:"id"`
	// Accepted reports whether the VM was placed. A false value is the
	// graceful-degradation path: the service stays up and Reason says why.
	Accepted bool `json:"accepted"`
	// Server is the hosting server's ID (not index) when accepted.
	Server int `json:"server,omitempty"`
	// Start and End bound the minutes the VM will occupy; Start includes
	// any wake-up delay beyond the requested start.
	Start int `json:"start,omitempty"`
	End   int `json:"end,omitempty"`
	// Reason explains a rejection.
	Reason string `json:"reason,omitempty"`
}

// ReleaseResponse is the body of a successful DELETE /v1/vms/{id}: the
// placement the released VM had held.
type ReleaseResponse struct {
	// VM is the released VM as admitted (its End reflects the original
	// schedule, not the early release).
	VM model.VM `json:"vm"`
	// Server is the index of the server that hosted the VM in the
	// configured fleet list.
	Server int `json:"server"`
	// Start is the minute the VM actually started (including any wake-up
	// delay).
	Start int `json:"start"`
}

// ClockRequest is the body of POST /v1/clock. Now is a pointer so a
// missing field is distinguishable from an explicit 0 (both are
// rejected, with different messages).
type ClockRequest struct {
	Now *int `json:"now"`
}

// ClockResponse is the body of a successful POST /v1/clock: the fleet
// clock after the advance (the clock is monotonic, so it can exceed the
// requested minute).
type ClockResponse struct {
	Now int `json:"now"`
}

// ServerState is one server's externally visible state within a
// StateResponse.
type ServerState struct {
	ID    int    `json:"id"`
	Type  string `json:"type,omitempty"`
	State string `json:"state"`
	VMs   int    `json:"vms"`
}

// PlacedVM is one resident VM within a StateResponse: the admitted VM,
// the index of its hosting server in the configured fleet list, and its
// actual start minute.
type PlacedVM = model.PlacedVM

// StateResponse is the body of GET /v1/state: a consistent snapshot of
// one cluster's durable state. Field order and names mirror the
// server's canonical encoding exactly — EncodeState over a decoded
// StateResponse reproduces the served bytes, which is what makes the
// X-Vmalloc-State-Digest header meaningful to clients.
type StateResponse struct {
	Now         int    `json:"now"`
	Policy      string `json:"policy"`
	IdleTimeout int    `json:"idleTimeoutMinutes"`
	Admitted    int    `json:"admitted"`
	Released    int    `json:"released"`
	// Migrations counts live migrations over the cluster lifetime;
	// MigrationSaved sums the planner's net Eq. 17 saving estimates. Both
	// are journaled facts and replay byte-identically.
	Migrations      int              `json:"migrations"`
	MigrationSaved  float64          `json:"migrationSavedWattMinutes"`
	Transitions     int              `json:"transitions"`
	ServersUsed     int              `json:"serversUsed"`
	Energy          energy.Breakdown `json:"energy"`
	TotalEnergy     float64          `json:"totalEnergyWattMinutes"`
	TotalStartDelay int              `json:"totalStartDelayMinutes"`
	MaxStartDelay   int              `json:"maxStartDelayMinutes"`
	Servers         []ServerState    `json:"servers"`
	VMs             []PlacedVM       `json:"vms"`
}

// DecisionsResponse is the body of GET /v1/debug/decisions: the
// flight-recorder readout.
type DecisionsResponse struct {
	Count     int            `json:"count"`
	Decisions []obs.Decision `json:"decisions"`
}

// ShardHealth is one shard's entry in a vmgate's GET /v1/shards
// response.
type ShardHealth struct {
	// Name is the shard's stable routing identity — renaming a shard
	// remaps its whole key range.
	Name string `json:"name"`
	// Addr is the shard's base URL.
	Addr string `json:"addr"`
	// Healthy reports the gate's current verdict on the shard.
	Healthy bool `json:"healthy"`
	// Weight is the shard's rendezvous weight (1 when unweighted).
	Weight float64 `json:"weight,omitempty"`
	// Error is the last probe or proxy failure while unhealthy.
	Error string `json:"error,omitempty"`
}

// ShardsResponse is the body of a vmgate's GET /v1/shards.
type ShardsResponse struct {
	// Epoch is the topology epoch the health table was taken under (0
	// for an unversioned map).
	Epoch  int64         `json:"epoch,omitempty"`
	Count  int           `json:"count"`
	Shards []ShardHealth `json:"shards"`
}

// ShardState is one shard's slice of a vmgate's aggregated GET
// /v1/state response.
type ShardState struct {
	Shard string `json:"shard"`
	Addr  string `json:"addr"`
	// Digest is the shard's own X-Vmalloc-State-Digest for the nested
	// State — the per-shard fingerprint the gate's combined digest is
	// built from.
	Digest string         `json:"digest"`
	State  *StateResponse `json:"state"`
}

// GateStateResponse is the body of a vmgate's GET /v1/state: every
// shard's state plus cross-shard aggregates. Digest is the combined
// fingerprint (see shard.CombineDigests): it changes exactly when some
// shard's state digest changes.
type GateStateResponse struct {
	// Now is the slowest shard's clock: every shard is at least here.
	Now int `json:"now"`
	// Aggregates over all shards.
	Admitted       int     `json:"admitted"`
	Released       int     `json:"released"`
	Migrations     int     `json:"migrations"`
	MigrationSaved float64 `json:"migrationSavedWattMinutes"`
	Residents      int     `json:"residents"`
	ServersUsed    int     `json:"serversUsed"`
	TotalEnergy    float64 `json:"totalEnergyWattMinutes"`
	// Digest is the combined per-shard digest, also served as the
	// X-Vmalloc-State-Digest header.
	Digest string `json:"digest"`
	// PlacementDigest fingerprints only VM residency — (id, owning
	// shard, start, end, demand), independent of which path placed each
	// VM there (see shard.PlacementDigest). Two deployments that agree
	// here host the same VMs on the same schedule even if their
	// per-shard counters (and therefore Digest) differ, which is what
	// makes a resized deployment comparable to a never-resized control.
	PlacementDigest string       `json:"placementDigest,omitempty"`
	Shards          []ShardState `json:"shards"`
}

// DecodeAdmitRequests parses a POST /v1/vms body — a single AdmitRequest
// object or a non-empty array of them. Unknown fields are tolerated. Both
// the server and the vmgate router decode admission bodies through this
// one function, so they can never disagree on what parses. A body in the
// plain form (admit_codec.go) is read in one pass; any other gets
// encoding/json's value or encoding/json's error.
func DecodeAdmitRequests(data []byte) ([]AdmitRequest, error) {
	if reqs, ok := plainList[AdmitRequest](data); ok {
		return reqs, nil
	}
	if bytes.HasPrefix(bytes.TrimSpace(data), []byte("[")) {
		var reqs []AdmitRequest
		if err := json.Unmarshal(data, &reqs); err != nil {
			return nil, fmt.Errorf("parse request array: %w", err)
		}
		if len(reqs) == 0 {
			return nil, errors.New("empty request array")
		}
		return reqs, nil
	}
	var req AdmitRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("parse request: %w", err)
	}
	return []AdmitRequest{req}, nil
}

// EncodeAdmitRequests writes a POST /v1/vms body: json.Marshal's bytes or
// error for reqs, in one pass for a non-empty batch in the plain form.
func EncodeAdmitRequests(reqs []AdmitRequest) ([]byte, error) {
	if b, ok := appendAdmitRequests(make([]byte, 0, 100*len(reqs)), reqs); ok && len(reqs) > 0 {
		return b, nil
	}
	return json.Marshal(reqs)
}

// DecodeAdmitResponses parses a POST /v1/vms answer: json.Unmarshal's
// value or error for data, in one pass for an answer in the plain form.
func DecodeAdmitResponses(data []byte) ([]AdmitResponse, error) {
	if resps, ok := plainList[AdmitResponse](data); ok {
		return resps, nil
	}
	var resps []AdmitResponse
	err := json.Unmarshal(data, &resps)
	return resps, err
}

// DecodeClockRequest parses a POST /v1/clock body. The whole body must
// be one JSON object carrying "now": trailing bytes are a parse error.
func DecodeClockRequest(data []byte) (ClockRequest, error) {
	var req ClockRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return req, fmt.Errorf("parse clock request: %w", err)
	}
	if req.Now == nil {
		return req, errors.New(`clock request wants {"now": <minute>}`)
	}
	return req, nil
}

// EncodeState marshals a state body (a *StateResponse, or a vmgate's
// aggregated *GateStateResponse) exactly as the server serves it:
// json.MarshalIndent(st, "", "  ") with a trailing newline, in one pass
// when st is in the plain form (state_codec.go). Digest over these bytes
// (DigestBytes) equals the X-Vmalloc-State-Digest header a server would
// send for the same state.
func EncodeState(st any) ([]byte, error) {
	var b []byte
	ok := false
	switch st := st.(type) {
	case *StateResponse:
		b, ok = appendState(make([]byte, 0, stateSize(st)), st, "\n")
	case *GateStateResponse:
		n := 1024
		for i := 0; st != nil && i < len(st.Shards); i++ {
			n += 256 + stateSize(st.Shards[i].State)
		}
		b, ok = appendGateState(make([]byte, 0, n), st)
	}
	if ok {
		return append(b, '\n'), nil
	}
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DigestBytes is the state fingerprint: hex SHA-256 of the given bytes.
// The cluster's StateDigest, the X-Vmalloc-State-Digest header and every
// client that re-digests a state body go through it.
func DigestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
