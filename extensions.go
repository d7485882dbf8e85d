package vmalloc

import (
	"io"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/core"
	"vmalloc/internal/energy"
	"vmalloc/internal/migration"
	"vmalloc/internal/model"
	"vmalloc/internal/online"
	"vmalloc/internal/search"
	"vmalloc/internal/trace"
	"vmalloc/internal/workload"
)

// Event-driven (online) simulation — see internal/online. The offline
// model assumes clairvoyant transition scheduling; the online engine makes
// wake-ups take real time and sleep decisions use an idle timeout.
type (
	// OnlineEngine runs an instance through the event-driven simulator.
	OnlineEngine = online.Engine
	// OnlinePolicy chooses a server per VM using only present state.
	OnlinePolicy = online.Policy
	// OnlineReport is the outcome of an event-driven run (energy,
	// transitions, start delays).
	OnlineReport = online.Report
	// OnlineMinCost is the online counterpart of the paper's heuristic.
	OnlineMinCost = online.MinCostPolicy
	// OnlinePreferActive packs onto already-active servers first.
	OnlinePreferActive = online.PreferActivePolicy
)

// NewOnlineFirstFit returns the online counterpart of FFPS. WithSeed
// drives its per-request random server order (default 1), matching the
// option vocabulary of the offline constructors.
func NewOnlineFirstFit(opts ...Option) OnlinePolicy {
	return online.NewFirstFitPolicy(core.NewConfig(opts...).Seed)
}

// OnlineArrivalOrder returns a copy of vms sorted by start time (stable)
// — the order the replay engine delivers arrivals in.
func OnlineArrivalOrder(vms []VM) []VM { return online.ArrivalOrder(vms) }

// Long-running allocation service — see internal/cluster. A Cluster wraps
// a live fleet and an online policy behind a concurrency-safe API with
// micro-batched admission, a journal + snapshot durability layer, and
// Prometheus metrics; cmd/vmserve serves it over HTTP.
type (
	// Cluster is the long-running allocation service.
	Cluster = cluster.Cluster
	// ClusterConfig configures OpenCluster (fleet, policy, journal
	// directory).
	ClusterConfig = cluster.Config
	// VMRequest is one admission request (ID 0 = assign, Start 0 = now).
	VMRequest = api.AdmitRequest
	// Admission is the per-request outcome, including structured
	// rejections when no server can host the VM.
	Admission = api.AdmitResponse
	// ClusterState is a consistent, journal-durable snapshot of the
	// cluster.
	ClusterState = api.StateResponse
	// PlacedVM is an admitted VM with its hosting server and actual start.
	PlacedVM = model.PlacedVM
)

// OpenCluster builds (or, when the config names a journal directory that
// holds a previous incarnation's state, restores) a cluster.
func OpenCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.Open(cfg) }

// Migration-based consolidation — see internal/migration.
type (
	// Consolidator evacuates under-utilised servers at fixed epochs.
	Consolidator = migration.Consolidator
	// MigrationConfig tunes the consolidator.
	MigrationConfig = migration.Config
	// MigrationSchedule maps VM IDs to their per-server pieces.
	MigrationSchedule = migration.Schedule
	// MigrationResult is a consolidation outcome with full accounting.
	MigrationResult = migration.Result
)

// Trace I/O — see internal/trace.

// WriteTraceCSV writes VM requests as a CSV trace.
func WriteTraceCSV(w io.Writer, vms []VM) error { return trace.WriteCSV(w, vms) }

// ReadTraceCSV parses a CSV trace.
func ReadTraceCSV(r io.Reader) ([]VM, error) { return trace.ReadCSV(r) }

// TraceStats summarises a trace (arrival/length means, concurrency, mix).
type TraceStats = trace.Stats

// AnalyzeTrace computes trace statistics; TraceStats.FitSpec turns them
// back into a WorkloadSpec for synthetic regeneration.
func AnalyzeTrace(vms []VM) TraceStats { return trace.Analyze(vms) }

// Diurnal workloads — see internal/workload.
type (
	// DiurnalSpec generates day/night arrival cycles.
	DiurnalSpec = workload.DiurnalSpec
)

// GenerateDiurnal builds an instance with a day/night arrival cycle.
func GenerateDiurnal(spec DiurnalSpec, fleet FleetSpec, seed int64) (Instance, error) {
	return workload.GenerateDiurnal(spec, fleet, seed)
}

// Generalised power curves — see internal/energy.
type (
	// PowerCurve generalises the paper's affine model with an idle-scale
	// and an exponent (energy-proportionality analysis).
	PowerCurve = energy.Curve
)

// AffinePowerCurve is the paper's model.
func AffinePowerCurve() PowerCurve { return energy.AffineCurve() }

// ProportionalPowerCurve scales the idle draw away by beta ∈ [0,1].
func ProportionalPowerCurve(beta float64) PowerCurve { return energy.ProportionalCurve(beta) }

// EvaluateUnderCurve re-prices a placement under a generalised power
// curve, integrating P(u(t)) over each server's optimal activity
// schedule.
func EvaluateUnderCurve(inst Instance, placement map[int]int, c PowerCurve) (Breakdown, error) {
	return energy.CurveEvaluate(inst, placement, c)
}

// Local search — see internal/search.
type (
	// Improver refines a feasible placement with relocation and swap
	// moves, never worsening it.
	Improver = search.Improver
	// ImproverStats reports the moves a search made.
	ImproverStats = search.Stats
)
