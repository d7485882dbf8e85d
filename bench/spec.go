package main

// The registry below is the benchmark's contract: every workload and
// every metric the program can print, with its unit and direction. The
// root BENCHMARK.json repeats the names for the driver;
// TestListMatchesBenchmarkJSON keeps the two equal. Adding a metric means adding a row here, a row in
// BENCHMARK.json and a line in README.md's glossary.

const (
	higher = "higher"
	lower  = "lower"
)

// metricSpec describes one reported number.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by; per-layer metrics carry none.
	Bound float64
}

// Workload names.
const (
	wlServeBatch      = "serve-batch"
	wlServeDurable    = "serve-durable"
	wlGateMixed       = "gate-mixed"
	wlOperatorRestart = "operator-restart"
	wlOfflineMinCost  = "offline-mincost"
)

// workloadSpec is one traffic mix. Why is the sentence BENCHMARK.json and
// README.md carry.
type workloadSpec struct {
	Name string
	Why  string
	run  func(*runEnv) (*result, error)
}

var workloads = []workloadSpec{
	{wlServeBatch, "one volatile vmserve, 512 servers, one batched admit per fleet minute plus releases and reads: scan, index, commit and the HTTP codec do the work, the journal none", runServeBatch},
	{wlServeDurable, "one journaled vmserve with fsync on, single-VM admits from every connection on 64 servers: queue wait, journal append, group commit, fsync and snapshot stalls dominate", runServeDurable},
	{wlGateMixed, "vmgate over three journaled shards without fsync: the gate's route, fan-out, merge and the second HTTP hop are on every op, and reads run beside writes", runGateMixed},
	{wlOperatorRestart, "crash recovery of a fragmented journal then one consolidation pass, repeated: the journal and fleet code used for replay and migration, not placement", runOperatorRestart},
	{wlOfflineMinCost, "the paper's batch MinCost through the root facade on 5000 VMs and 500 servers, no service layer: pins placement quality and the algorithm's decision cost", runOfflineMinCost},
}

// End-to-end metrics. Every workload reports every one of them (the
// driver requires it); README.md's glossary gives each workload's
// reading of a name, e.g. op_p50_ms is an admit call on the service
// workloads, a restart on operator-restart and one Allocate offline. The
// bounds are as wide as the sandbox's own run-to-run spread needs (AA.md).
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"vms_per_s", "1/s", higher, 0.25},
	{"op_p50_ms", "ms", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"energy_reduction_pct", "%", higher, 0.20},
}

// Per-layer metrics, named <module>.<metric>. A traced run reports all of
// them; a layer that does no work on a workload reports 0 there.
var perLayer = []metricSpec{
	// clusterhttp / api
	{"clusterhttp.decode_us_p50", "us", lower, 0},
	{"clusterhttp.route_self_us_p50", "us", lower, 0},
	{"clusterhttp.stage_coverage_pct", "%", higher, 0},
	{"clusterhttp.req_bytes_per_vm", "B", lower, 0},
	{"clusterhttp.resp_bytes_per_vm", "B", lower, 0},
	{"clusterhttp.clock_ms_p50", "ms", lower, 0},
	{"clusterhttp.admit_ms_p99", "ms", lower, 0},
	{"clusterhttp.release_ms_p99", "ms", lower, 0},
	{"clusterhttp.state_read_ms_p50", "ms", lower, 0},
	// cluster: batcher, commit, journal
	{"cluster.queue_wait_us_p50", "us", lower, 0},
	{"cluster.queue_wait_us_p99", "us", lower, 0},
	{"cluster.batch_vms_mean", "count", higher, 0},
	{"cluster.scan_us_per_vm", "us", lower, 0},
	{"cluster.commit_us_per_vm", "us", lower, 0},
	{"cluster.journal_append_us_per_record", "us", lower, 0},
	{"cluster.journal_bytes_per_record", "B", lower, 0},
	{"cluster.disk_write_bytes_per_vm", "B", lower, 0},
	{"cluster.fsync_ms_p50", "ms", lower, 0},
	{"cluster.fsync_ms_p99", "ms", lower, 0},
	{"cluster.fsyncs_per_admit", "ratio", lower, 0},
	{"cluster.durability_self_share_pct", "%", lower, 0},
	{"cluster.snapshots", "count", lower, 0},
	{"cluster.group_commit_vms_per_s_c1", "1/s", higher, 0},
	{"cluster.group_commit_vms_per_s_c32", "1/s", higher, 0},
	{"cluster.gomaxprocs_scaling", "ratio", higher, 0},
	// cluster: recovery, consolidation
	{"cluster.boot_empty_ms", "ms", lower, 0},
	{"cluster.replay_records_per_s", "1/s", higher, 0},
	{"cluster.consolidate_pass_ms", "ms", lower, 0},
	{"cluster.consolidate_plan_ms", "ms", lower, 0},
	{"cluster.consolidate_moves_per_pass", "count", higher, 0},
	// online
	{"online.place_ns_per_vm", "ns", lower, 0},
	{"online.scan_candidates_per_vm", "count", lower, 0},
	{"online.candidates_pruned_share", "ratio", higher, 0},
	{"online.commit_ns_per_vm", "ns", lower, 0},
	{"online.release_ns_per_vm", "ns", lower, 0},
	{"online.advance_ns_per_event", "ns", lower, 0},
	// timeline
	{"timeline.add_ns_k8", "ns", lower, 0},
	{"timeline.add_ns_k512", "ns", lower, 0},
	{"timeline.remove_ns_k512", "ns", lower, 0},
	{"timeline.maxusage_ns_k512", "ns", lower, 0},
	// core
	{"core.argmin_ns_per_candidate_p1", "ns", lower, 0},
	{"core.argmin_ns_per_candidate_pn", "ns", lower, 0},
	{"core.alloc_candidates_per_vm", "count", lower, 0},
	{"core.alloc_scan_share", "ratio", lower, 0},
	{"core.alloc_worker_utilisation", "ratio", higher, 0},
	{"core.ffps_vms_per_s", "1/s", higher, 0},
	// energy
	{"energy.evaluate_us_per_vm", "us", lower, 0},
	// shard
	{"shard.assign_ns", "ns", lower, 0},
	{"shard.route_self_us_p50", "us", lower, 0},
	{"shard.fanout_us_p50", "us", lower, 0},
	{"shard.merge_us_p50", "us", lower, 0},
	{"shard.fanout_width_mean", "count", lower, 0},
	{"shard.gate_overhead_us_p50", "us", lower, 0},
	{"shard.state_merge_ms_p50", "ms", lower, 0},
	{"shard.proxy_errors", "count", lower, 0},
	{"shard.rebalance_drain_vms_per_s", "1/s", higher, 0},
	// obs
	{"obs.span_record_ns", "ns", lower, 0},
	{"obs.decision_record_ns", "ns", lower, 0},
	{"obs.energy_record_ns", "ns", lower, 0},
	{"obs.telemetry_overhead_pct", "%", lower, 0},
	{"obs.bench_tracing_overhead_pct", "%", lower, 0},
	// bench: the generator itself
	{"bench.machine_speed", "ratio", higher, 0},
	{"bench.server_cpu_us_per_vm", "us", lower, 0},
	{"bench.generator_cpu_share", "ratio", lower, 0},
}
