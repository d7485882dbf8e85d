package api

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Machine-readable error codes carried in ErrorEnvelope.Code, each with
// the HTTP status it travels under. Clients branch on the code, never on
// the message text. This is the one code table.
const (
	// CodeBadRequest (400; 413 for a body over MaxBodyBytes): the request
	// could not be parsed or validated (malformed JSON, bad VM id or query
	// parameter, missing clock field).
	CodeBadRequest = "bad_request"
	// CodeNotResident (404): DELETE /v1/vms/{id} or POST /v1/migrations
	// named a VM that is not currently admitted (never was, already
	// departed, already released).
	CodeNotResident = "not_resident"
	// CodeJournalBroken (503): the cluster's journal failed a write and
	// refuses mutations until a snapshot heals it
	// (cluster.ErrJournalBroken).
	CodeJournalBroken = "journal_broken"
	// CodeOverloaded (503): the service cannot take the request right now —
	// shutting down (cluster.ErrClosed) or refusing load.
	CodeOverloaded = "overloaded"
	// CodeShardDown (503): a vmgate could not reach the shard that owns the
	// request's key range; the envelope message names the shard. Only the
	// down shard's key range is affected.
	CodeShardDown = "shard_down"
	// CodeMigrationInfeasible (409): POST /v1/migrations or /v1/adoptions
	// named a move the current fleet state cannot satisfy — the target
	// lacks capacity over the VM's remaining interval, cannot wake by the
	// handoff minute, or the VM has no remaining minutes to move. The
	// fleet is untouched.
	CodeMigrationInfeasible = "migration_infeasible"
	// CodeConsolidationBusy (409): POST /v1/consolidate raced an in-flight
	// consolidation pass; at most one runs at a time. Retry after the
	// current pass finishes.
	CodeConsolidationBusy = "consolidation_busy"
	// CodeStaleEpoch (409): the request carried an X-Vmalloc-Epoch older
	// than the highest epoch the serving side has seen (or POST
	// /v1/topology proposed a non-newer epoch) — the sender is routing on
	// a superseded topology. Recover by re-fetching GET /v1/topology and
	// re-routing; the request was not executed.
	CodeStaleEpoch = "stale_epoch"
	// CodeRebalancing (409): POST /v1/topology arrived while the gate is
	// still draining the previous topology change; one rebalance runs at
	// a time. Poll GET /v1/topology until rebalance.active is false, then
	// retry.
	CodeRebalancing = "rebalancing"
	// CodeInternal (500; 502 when a vmgate cannot parse a shard's answer):
	// an unclassified server-side failure.
	CodeInternal = "internal"
)

// ErrorEnvelope is the body of every non-2xx response: a machine-readable
// code, the human-readable message (kept under the historical "error"
// key, so pre-envelope clients that read only that field keep working),
// and the request id the failing request carried — the same id the
// server's flight recorder and structured log attribute the failure to.
type ErrorEnvelope struct {
	Code      string `json:"code,omitempty"`
	Message   string `json:"error"`
	RequestID string `json:"requestId,omitempty"`
}

// Error is a non-2xx response as a client-side error value: the HTTP
// status plus the decoded envelope. Both the loadgen client and the
// vmgate router surface upstream failures as *Error.
type Error struct {
	Status   int
	Envelope ErrorEnvelope
}

func (e *Error) Error() string {
	code := e.Envelope.Code
	if code == "" {
		code = "unknown"
	}
	return fmt.Sprintf("api: server returned %d (%s): %s", e.Status, code, e.Envelope.Message)
}

// DecodeError builds an *Error from a non-2xx response body. Bodies that
// do not parse as an envelope (proxies, panics, plain-text handlers)
// degrade gracefully: the trimmed body becomes the message.
func DecodeError(status int, body []byte) *Error {
	e := &Error{Status: status}
	if err := json.Unmarshal(body, &e.Envelope); err != nil || e.Envelope.Message == "" && e.Envelope.Code == "" {
		e.Envelope.Message = strings.TrimSpace(string(body))
	}
	return e
}
