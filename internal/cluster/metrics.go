package cluster

import (
	"bytes"
	"io"
	"strconv"

	"vmalloc/internal/obs"
	"vmalloc/internal/online"
)

// metricsPrefix namespaces every exported series.
const metricsPrefix = "vmalloc_cluster"

// metrics is the cluster's runtime-only instrumentation: counters and
// histograms that are deliberately not journaled (a restart starts them
// from zero; durable facts live in State).
type metrics struct {
	admissions     uint64
	rejections     uint64
	releases       uint64
	migrations     uint64
	adoptions      uint64
	consolidations uint64
	migrationSaved float64 // summed planner net-saving estimates, watt-minutes
	batches        uint64
	snapshots      uint64
	snapshotErrors uint64
	journalErrors  uint64
	batchSize      *obs.Histogram
	scanSeconds    *obs.Histogram
	// consolidateSeconds observes each consolidation pass's wall time
	// (planning and execution, under the cluster lock).
	consolidateSeconds *obs.Histogram
	// queueWaitSeconds observes, per Admit call, how long the call sat in
	// the micro-batch queue before its batch started; fsyncSeconds
	// observes every wait for a covering journal flush — each batch's
	// group commit (the flush already in flight plus the one covering the
	// batch) and each synchronous mutation's own (commitLocked). Both are
	// the cumulative /metrics view of the per-decision stage timings the
	// flight recorder keeps.
	queueWaitSeconds *obs.Histogram
	fsyncSeconds     *obs.Histogram
}

func newMetrics() metrics {
	return metrics{
		batchSize:          obs.NewHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256),
		scanSeconds:        obs.NewHistogram(1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1),
		queueWaitSeconds:   obs.NewHistogram(1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1),
		fsyncSeconds:       obs.NewHistogram(1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1),
		consolidateSeconds: obs.NewHistogram(1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1),
	}
}

// WriteMetrics writes the cluster's metrics in Prometheus text exposition
// format: admission/rejection/release/batch counters, batch-size and
// scan-time histograms, the scan counters the policies' passes keep in
// the fleet view (runtime-only, like the rest: a restart builds a new
// view), the cumulative energy components in watt-minutes, and each
// server's power state.
func (c *Cluster) WriteMetrics(w io.Writer) error {
	c.mu.Lock()
	var buf bytes.Buffer
	const p = metricsPrefix + "_"
	obs.Counter(&buf, p+"admissions_total", "VMs admitted over the cluster's lifetime.", c.met.admissions)
	obs.Counter(&buf, p+"rejections_total", "Admission requests rejected (no capacity or invalid).", c.met.rejections)
	obs.Counter(&buf, p+"releases_total", "VMs released before their scheduled end.", c.met.releases)
	obs.Counter(&buf, p+"migrations_total", "Live migrations executed (consolidation passes and direct requests).", c.met.migrations)
	obs.Counter(&buf, p+"adoptions_total", "VMs adopted from another shard during a topology rebalance.", c.met.adoptions)
	obs.Counter(&buf, p+"consolidations_total", "Consolidation passes run.", c.met.consolidations)
	obs.Counter(&buf, p+"migration_energy_saved_watt_minutes",
		"Net energy saved by executed migrations (planner's Eq. 17 estimate), in watt-minutes.", c.met.migrationSaved)
	obs.Counter(&buf, p+"batches_total", "Admission batches processed.", c.met.batches)
	obs.Counter(&buf, p+"snapshots_total", "Snapshots written.", c.met.snapshots)
	obs.Counter(&buf, p+"snapshot_errors_total", "Snapshot attempts that failed.", c.met.snapshotErrors)
	obs.Counter(&buf, p+"journal_errors_total", "Journal writes that failed (each breaks the journal until a snapshot heals it).", c.met.journalErrors)
	broken := 0
	if c.jfail != nil {
		broken = 1
	}
	obs.Gauge(&buf, p+"journal_broken", "1 while the journal is broken and mutations are refused.", broken)
	fv := c.fleet.View()
	scan := fv.ScanCounts()
	obs.Counter(&buf, p+"scan_candidates_total", "Candidate (VM, server) pairs evaluated.", scan.Evaluated)
	obs.Counter(&buf, p+"scan_bound_pruned_total", "Candidate pairs skipped unprobed: the server's run cost alone was no cheaper than the best price found.", scan.Bounded)
	obs.Counter(&buf, p+"scan_infeasible_total", "Probed candidate pairs rejected as infeasible.", scan.Infeasible)
	obs.Counter(&buf, p+"scan_index_pruned_total", "Infeasible candidate servers rejected from their row alone, without the exact window check.", scan.RowRejected)
	var groups, grouped uint64
	if c.jr != nil {
		groups = c.jr.groups.Load()
		grouped = c.jr.grouped.Load()
	}
	obs.Counter(&buf, p+"fsync_groups_total", "Journal group-commit fsyncs executed.", groups)
	obs.Counter(&buf, p+"fsync_group_commits_total", "Journal commits acknowledged by group-commit fsyncs.", grouped)

	c.met.batchSize.Write(&buf, p+"batch_size", "VM requests per admission batch.")
	c.met.scanSeconds.Write(&buf, p+"scan_seconds", "Candidate-scan wall time per batch, in seconds.")
	c.met.consolidateSeconds.Write(&buf, p+"consolidate_seconds", "Consolidation pass wall time (plan and execute), in seconds.")
	c.met.queueWaitSeconds.Write(&buf, p+"queue_wait_seconds", "Per-call wait in the micro-batch queue before batch processing started, in seconds.")
	c.met.fsyncSeconds.Write(&buf, p+"fsync_seconds", "Wait for the group-commit flush covering a batch or a synchronous mutation, in seconds.")

	now := c.fleet.Now()
	obs.Gauge(&buf, p+"clock_minutes", "The fleet clock, in minutes.", now)
	obs.Gauge(&buf, p+"resident_vms", "VMs currently admitted.", c.fleet.NumResidents())
	obs.Gauge(&buf, p+"servers_used", "Servers that hosted at least one VM.", c.fleet.ServersUsed())
	obs.Gauge(&buf, p+"transitions", "Power-saving to active wake-ups.", c.fleet.Transitions())
	obs.Counter(&buf, p+"start_delay_minutes_total", "Summed VM start delay, in minutes.", c.fleet.StartDelayTotal())
	obs.Gauge(&buf, p+"start_delay_minutes_max", "Worst single VM start delay, in minutes.", c.fleet.MaxStartDelay())

	b := c.fleet.EnergyAt(now)
	full := p + "energy_watt_minutes"
	obs.Declare(&buf, full, "Cumulative energy by component, in watt-minutes.", "gauge")
	obs.Sample(&buf, full, b.Run, "component", "run")
	obs.Sample(&buf, full, b.Idle, "component", "idle")
	obs.Sample(&buf, full, b.Transition, "component", "transition")
	obs.Sample(&buf, full, b.Total(), "component", "total")

	perState := map[online.State]int{}
	full = p + "server_state"
	obs.Declare(&buf, full, "Per-server power state (1 power-saving, 2 waking, 3 active).", "gauge")
	for i := 0; i < fv.NumServers(); i++ {
		st := fv.StateOf(i)
		perState[st]++
		obs.Sample(&buf, full, int(st), "server", strconv.Itoa(fv.Server(i).ID))
	}
	full = p + "servers"
	obs.Declare(&buf, full, "Servers by power state.", "gauge")
	for _, st := range []online.State{online.PowerSaving, online.Waking, online.Active} {
		obs.Sample(&buf, full, perState[st], "state", st.String())
	}
	c.mu.Unlock()

	_, err := w.Write(buf.Bytes())
	return err
}
