package api

import (
	"bytes"
	"encoding/json"
	"fmt"

	"vmalloc/internal/model"
)

// EpochHeader carries the sender's topology epoch on requests into the
// serving tier. Shards remember the highest epoch they have seen and
// answer anything older with 409 stale_epoch — a passive fence: a gate
// or client still routing on a superseded shard set is told so by the
// first shard the newer topology has already touched, instead of
// silently splitting VMs across two views of the cluster. Requests
// without the header (single-shard deployments, curl) pass unfenced.
const EpochHeader = "X-Vmalloc-Epoch"

// TopologyShard is one shard entry of a versioned topology: routing
// name, base URL, and rendezvous weight (0 means 1).
type TopologyShard struct {
	Name   string  `json:"name"`
	URL    string  `json:"url"`
	Weight float64 `json:"weight,omitempty"`
}

// Topology is the versioned shard-set wire type — both the
// topology.json file cmd/vmgate loads at startup and the request body
// of POST /v1/topology. Epochs must be ≥ 1 and strictly increase
// across changes; the epoch, not file mtime or request order, decides
// which topology is newest.
type Topology struct {
	Epoch  int64           `json:"epoch"`
	Shards []TopologyShard `json:"shards"`
}

// RebalanceStatus reports the gate's background drain after a topology
// change: how many VMs the resize planner remapped (Planned), and how
// many have been moved to their new owner, skipped (departed naturally
// before their turn), or failed so far. Active is false once the drain
// finished; FromEpoch/ToEpoch identify the transition while one is in
// flight.
type RebalanceStatus struct {
	Active    bool   `json:"active"`
	FromEpoch int64  `json:"fromEpoch,omitempty"`
	ToEpoch   int64  `json:"toEpoch,omitempty"`
	Planned   int    `json:"planned"`
	Moved     int    `json:"moved"`
	Skipped   int    `json:"skipped"`
	Failed    int    `json:"failed"`
	LastError string `json:"lastError,omitempty"`
}

// TopologyResponse is the body of GET /v1/topology: the gate's current
// topology plus the state of the most recent rebalance.
type TopologyResponse struct {
	Epoch     int64           `json:"epoch"`
	Shards    []TopologyShard `json:"shards"`
	Rebalance RebalanceStatus `json:"rebalance"`
}

// DecodeTopology decodes a Topology from a topology file or a
// POST /v1/topology body. Structural validation only — shard-set rules
// (unique names, weight ranges) live in shard.NewMap.
func DecodeTopology(data []byte) (Topology, error) {
	if len(bytes.TrimSpace(data)) == 0 {
		return Topology{}, fmt.Errorf("empty topology")
	}
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return Topology{}, fmt.Errorf("invalid topology: %w", err)
	}
	if t.Epoch < 1 {
		return Topology{}, fmt.Errorf("invalid topology: epoch %d, want ≥ 1", t.Epoch)
	}
	if len(t.Shards) == 0 {
		return Topology{}, fmt.Errorf("invalid topology: no shards")
	}
	return t, nil
}

// AdoptRequest is the body of POST /v1/adoptions: place an already-
// running VM on this shard, preserving the identity it acquired on its
// original owner. Start is the actual start time granted at first
// admission — the adopted placement keeps it (and with it the VM's
// (start, end) interval and departure time), unlike a fresh admission,
// which would re-normalize a past start to the current clock. The
// gate's rebalancer is the intended caller, but the endpoint is plain
// HTTP: replaying it is idempotent (an identical resident placement is
// re-acknowledged, not duplicated).
type AdoptRequest struct {
	VM    model.VM `json:"vm"`
	Start int      `json:"start"`
}

// AdoptResponse acknowledges an adoption: where the VM landed and from
// which time unit this shard starts accounting for it (Handoff). The
// interval [Start, End] is the VM's original residency, unchanged.
type AdoptResponse struct {
	VM      int `json:"vm"`
	Server  int `json:"server"`
	Start   int `json:"start"`
	End     int `json:"end"`
	Handoff int `json:"handoff"`
}

// DecodeAdoptRequest parses a POST /v1/adoptions body.
func DecodeAdoptRequest(data []byte) (AdoptRequest, error) {
	if len(bytes.TrimSpace(data)) == 0 {
		return AdoptRequest{}, fmt.Errorf("empty adoption request")
	}
	var req AdoptRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return AdoptRequest{}, fmt.Errorf("invalid adoption request: %w", err)
	}
	if err := req.VM.Validate(); err != nil {
		return AdoptRequest{}, fmt.Errorf("invalid adoption request: %w", err)
	}
	if req.Start < req.VM.Start {
		return AdoptRequest{}, fmt.Errorf("invalid adoption request: actual start %d before requested start %d", req.Start, req.VM.Start)
	}
	return req, nil
}
