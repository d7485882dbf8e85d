package obs

import (
	"log/slog"
	"sync"
	"time"
)

// Decision Op values.
const (
	// OpAdmit is a VM placed on a server.
	OpAdmit = "admit"
	// OpReject is an admission request the cluster turned down — invalid,
	// infeasible, or refused behind a broken journal.
	OpReject = "reject"
	// OpRelease is an early release of a resident VM (Reason is set when
	// the release failed, e.g. the VM was not resident).
	OpRelease = "release"
	// OpMigrate is a live migration of a resident VM between servers —
	// planned by a consolidation pass or requested directly. Server is the
	// target, From the source; Reason is set when the migration was
	// refused as infeasible.
	OpMigrate = "migrate"
	// OpAdopt is a VM taken over from another shard during a topology
	// rebalance, keeping the (start, end) identity its original owner
	// granted. Server is where it landed; Reason is set when the
	// adoption was refused as infeasible.
	OpAdopt = "adopt"
)

// StageTimings are the per-stage wall durations of one decision, the
// span breakdown of an admission's path through the service: HTTP body
// decode, wait for the cluster lock, candidate scan, fleet commit,
// journal append, and the fsync covering the call. Zero means the stage did not
// run (a rejected VM has no commit; a volatile cluster never syncs).
type StageTimings struct {
	Decode    time.Duration `json:"decodeNanos,omitempty"`
	QueueWait time.Duration `json:"queueWaitNanos,omitempty"`
	Scan      time.Duration `json:"scanNanos,omitempty"`
	Commit    time.Duration `json:"commitNanos,omitempty"`
	Journal   time.Duration `json:"journalNanos,omitempty"`
	Sync      time.Duration `json:"syncNanos,omitempty"`
}

// Decision is one flight-recorder entry: the full story of why one
// admission, rejection or release came out the way it did.
type Decision struct {
	// Seq is the recorder's monotonically increasing sequence number;
	// gaps never occur, so Seq also says how much history the bounded
	// buffer has evicted.
	Seq int64 `json:"seq"`
	// Wall is the wall-clock time the decision was recorded.
	Wall time.Time `json:"wall"`
	// RequestID is the id of the HTTP request that carried the operation
	// (empty for callers that bypass the HTTP edge).
	RequestID string `json:"requestId,omitempty"`
	// TraceID links the decision to its distributed trace — the same id
	// filters /v1/debug/traces (on the shard and, stitched, on the gate).
	TraceID string `json:"traceId,omitempty"`
	// Batch numbers the admission batch that processed the operation
	// (releases are not batched and leave it 0).
	Batch uint64 `json:"batch,omitempty"`
	// Op is OpAdmit, OpReject, OpRelease or OpMigrate.
	Op string `json:"op"`
	// VM is the VM id the decision is about.
	VM int `json:"vm,omitempty"`
	// Server is the hosting server's ID (not index) for admits and
	// successful releases; the target server for migrations.
	Server int `json:"server,omitempty"`
	// From is the source server's ID for migrations.
	From int `json:"from,omitempty"`
	// SavedWattMinutes is the planner's net energy-saving estimate for a
	// consolidation-planned migration.
	SavedWattMinutes float64 `json:"savedWattMinutes,omitempty"`
	// Start and End bound the admitted VM's occupancy, in fleet minutes.
	Start int `json:"start,omitempty"`
	End   int `json:"end,omitempty"`
	// Clock is the fleet minute at which the decision was taken.
	Clock int `json:"clock,omitempty"`
	// Reason explains a rejection or a failed release.
	Reason string `json:"reason,omitempty"`
	// Candidates counts the (VM, server) pairs this decision's candidate
	// scan walked, Infeasible those it probed and found infeasible; a pair
	// the MinCost pass skipped by its run-cost bound is only a candidate.
	Candidates int64 `json:"candidates,omitempty"`
	Infeasible int64 `json:"infeasible,omitempty"`
	// Stages is the per-stage duration breakdown.
	Stages StageTimings `json:"stages"`
}

// DefaultRecorderSize is the flight recorder's capacity when the
// configured size is 0.
const DefaultRecorderSize = 512

// FlightRecorder is a bounded, concurrency-safe ring buffer of the last
// N decisions — always on, cheap enough to leave running in production,
// and the data source behind GET /v1/debug/decisions and the SIGQUIT
// dump. When the buffer is full the oldest decision is evicted.
type FlightRecorder struct {
	mu  sync.Mutex
	buf ring[Decision]
	seq int64
}

// NewFlightRecorder returns a recorder keeping the last n decisions;
// n <= 0 means DefaultRecorderSize.
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultRecorderSize
	}
	return &FlightRecorder{buf: newRing[Decision](n)}
}

// Record stamps d with the next sequence number (and the current wall
// time, unless the caller already set one) and appends it, evicting the
// oldest entry when full.
func (r *FlightRecorder) Record(d Decision) {
	r.mu.Lock()
	r.seq++
	d.Seq = r.seq
	if d.Wall.IsZero() {
		d.Wall = time.Now()
	}
	r.buf.push(&d)
	r.mu.Unlock()
}

// Len returns how many decisions the buffer currently holds.
func (r *FlightRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.len()
}

// Filter selects decisions from the recorder. Zero values match
// everything (VM and server ids are always >= 1).
type Filter struct {
	// VM keeps only decisions about this VM id.
	VM int
	// Server keeps only decisions on this server ID.
	Server int
	// Op keeps only decisions with this Op.
	Op string
	// Limit keeps only the newest Limit matches; 0 keeps all.
	Limit int
}

func (f Filter) match(d *Decision) bool {
	if f.VM > 0 && d.VM != f.VM {
		return false
	}
	if f.Server > 0 && d.Server != f.Server {
		return false
	}
	if f.Op != "" && d.Op != f.Op {
		return false
	}
	return true
}

// Decisions returns the matching decisions, oldest first. The slice is
// a copy: callers may hold it while the recorder keeps recording.
func (r *FlightRecorder) Decisions(f Filter) []Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.filter(f.Limit, f.match)
}

// Dump logs every buffered decision (oldest first) through log at INFO
// level — the SIGQUIT handler's "black box readout" — and returns how
// many were written.
func (r *FlightRecorder) Dump(log *slog.Logger) int {
	ds := r.Decisions(Filter{})
	for i := range ds {
		d := &ds[i]
		log.Info("decision",
			"seq", d.Seq,
			"wall", d.Wall,
			"requestId", d.RequestID,
			"traceId", d.TraceID,
			"batch", d.Batch,
			"op", d.Op,
			"vm", d.VM,
			"server", d.Server,
			"from", d.From,
			"clock", d.Clock,
			"reason", d.Reason,
			"candidates", d.Candidates,
			"infeasible", d.Infeasible,
			"queueWait", d.Stages.QueueWait,
			"scan", d.Stages.Scan,
			"commit", d.Stages.Commit,
			"journal", d.Stages.Journal,
			"sync", d.Stages.Sync,
		)
	}
	return len(ds)
}
