package loadgen

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/obs"
)

// LatencySummary condenses one operation type's request latencies.
// Quantiles are exact (computed from the full sorted sample, not a
// sketch): the harness holds every sample in memory.
type LatencySummary struct {
	Count int           `json:"count"`
	Mean  time.Duration `json:"mean"`
	P50   time.Duration `json:"p50"`
	P95   time.Duration `json:"p95"`
	P99   time.Duration `json:"p99"`
	Max   time.Duration `json:"max"`
}

// summarize computes the summary; the input slice is sorted in place.
func summarize(samples []time.Duration) LatencySummary {
	if len(samples) == 0 {
		return LatencySummary{}
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	q := func(p float64) time.Duration {
		i := int(p * float64(len(samples)-1))
		return samples[i]
	}
	return LatencySummary{
		Count: len(samples),
		Mean:  sum / time.Duration(len(samples)),
		P50:   q(0.50),
		P95:   q(0.95),
		P99:   q(0.99),
		Max:   samples[len(samples)-1],
	}
}

func (l LatencySummary) String() string {
	if l.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s max=%s",
		l.Count, l.Mean.Round(time.Microsecond), l.P50.Round(time.Microsecond),
		l.P95.Round(time.Microsecond), l.P99.Round(time.Microsecond), l.Max.Round(time.Microsecond))
}

// Report is the outcome of one load run.
type Report struct {
	Profile string `json:"profile"`
	Seed    int64  `json:"seed"`
	Steps   int    `json:"steps"`

	// Admission outcomes: Sent = Accepted + Rejected when Errors is 0.
	Sent     int `json:"sent"`
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	// Releases that removed a resident VM; ReleaseMisses answered 404.
	Releases      int `json:"releases"`
	ReleaseMisses int `json:"releaseMisses"`
	// ReleaseSkips are scheduled releases never issued because the VM's
	// admission was rejected.
	ReleaseSkips int `json:"releaseSkips"`
	// ClockTicks counts /v1/clock advances (steps plus the final drain).
	ClockTicks int `json:"clockTicks"`
	// Consolidations counts completed consolidation passes
	// (Options.ConsolidateEvery); Migrations sums their executed moves
	// and MigrationSaved their planner-side net savings in watt-minutes.
	Consolidations int     `json:"consolidations,omitempty"`
	Migrations     int     `json:"migrations,omitempty"`
	MigrationSaved float64 `json:"migrationSavedWattMinutes,omitempty"`
	// Errors counts operations that failed after every retry — transport
	// failures and 5xx responses. A healthy run reports 0.
	Errors int `json:"errors"`
	// Retries counts extra attempts the client issued.
	Retries int `json:"retries"`
	// BehindSteps counts steps that started later than their wall-clock
	// target by more than one pacing interval (the open-loop generator
	// fell behind and proceeded flat-out).
	BehindSteps int `json:"behindSteps"`

	Wall time.Duration `json:"wallNanos"`

	AdmitLatency   LatencySummary `json:"admitLatency"`
	ReleaseLatency LatencySummary `json:"releaseLatency"`
	ClockLatency   LatencySummary `json:"clockLatency"`

	// StageLatency summarizes server-side stage durations (queue wait,
	// scan, commit, fsync, ...) pulled from GET /v1/debug/traces after
	// the run, keyed by span name. Empty when the server runs without a
	// span store. These are per-span samples from the server's bounded
	// buffer, not per-request client latencies.
	StageLatency map[string]LatencySummary `json:"stageLatency,omitempty"`

	// OutcomeDigest is the hex SHA-256 of the ordered outcome log (every
	// admission's accepted bit in VM-ID order per step, every release's
	// outcome): equal digests mean identical admission/rejection
	// sequences. Runs with the same seed and spec against fresh servers
	// in the default step mode produce equal digests.
	OutcomeDigest string `json:"outcomeDigest"`

	// MetricsDelta is after − before for every /metrics series scraped
	// around the run (nil when scraping failed or was skipped).
	MetricsDelta Metrics `json:"metricsDelta,omitempty"`

	// FinalNow, FinalResidents, FinalEnergy and StateDigest summarise
	// GET /v1/state after the run.
	FinalNow       int     `json:"finalNow"`
	FinalResidents int     `json:"finalResidents"`
	FinalEnergy    float64 `json:"finalEnergyWattMinutes"`
	StateDigest    string  `json:"stateDigest"`
}

// metricsDeltaKeys are the counter series the human-readable report
// surfaces; the JSON report carries the full delta map.
var metricsDeltaKeys = []string{
	"vmalloc_cluster_admissions_total",
	"vmalloc_cluster_rejections_total",
	"vmalloc_cluster_releases_total",
	"vmalloc_cluster_batches_total",
	"vmalloc_cluster_snapshots_total",
	"vmalloc_cluster_journal_errors_total",
	"vmalloc_cluster_scan_candidates_total",
	"vmalloc_cluster_migrations_total",
	"vmalloc_cluster_consolidations_total",
}

// stageOrder fixes the stage rows' print order to the request's journey
// through a shard: decode → queue wait → scan → commit → journal →
// fsync.
var stageOrder = []string{
	obs.SpanDecode, obs.SpanQueue, obs.SpanScan,
	obs.SpanCommit, obs.SpanJournal, obs.SpanSync,
}

// stageLatency buckets a trace readout's stage spans by name and
// summarizes each bucket. Spans outside stageOrder (route, fanout,
// migrate umbrellas, ...) are skipped: the report's stage table is
// about where a request's time goes inside a shard.
func stageLatency(tr *api.TracesResponse) map[string]LatencySummary {
	if tr == nil {
		return nil
	}
	wanted := make(map[string]bool, len(stageOrder))
	for _, name := range stageOrder {
		wanted[name] = true
	}
	byStage := make(map[string][]time.Duration)
	for _, t := range tr.Traces {
		for _, sp := range t.Spans {
			if wanted[sp.Name] {
				byStage[sp.Name] = append(byStage[sp.Name], sp.Duration)
			}
		}
	}
	if len(byStage) == 0 {
		return nil
	}
	out := make(map[string]LatencySummary, len(byStage))
	for name, samples := range byStage {
		out[name] = summarize(samples)
	}
	return out
}

// String renders the report as the vmload CLI's human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile %s seed %d: %d steps in %s\n", r.Profile, r.Seed, r.Steps, r.Wall.Round(time.Millisecond))
	fmt.Fprintf(&b, "admissions: %d sent, %d accepted, %d rejected\n", r.Sent, r.Accepted, r.Rejected)
	fmt.Fprintf(&b, "releases:   %d ok, %d missed, %d skipped (vm never admitted)\n", r.Releases, r.ReleaseMisses, r.ReleaseSkips)
	fmt.Fprintf(&b, "clock:      %d ticks; errors %d, retries %d, behind-steps %d\n", r.ClockTicks, r.Errors, r.Retries, r.BehindSteps)
	if r.Consolidations > 0 {
		fmt.Fprintf(&b, "consolidation: %d passes, %d migrations, %.2f Wmin saved\n", r.Consolidations, r.Migrations, r.MigrationSaved)
	}
	fmt.Fprintf(&b, "latency admit:   %s\n", r.AdmitLatency)
	if r.ReleaseLatency.Count > 0 {
		fmt.Fprintf(&b, "latency release: %s\n", r.ReleaseLatency)
	}
	if r.ClockLatency.Count > 0 {
		fmt.Fprintf(&b, "latency clock:   %s\n", r.ClockLatency)
	}
	if len(r.StageLatency) > 0 {
		fmt.Fprintf(&b, "server stage spans (from /v1/debug/traces):\n")
		for _, name := range stageOrder {
			if s, ok := r.StageLatency[name]; ok {
				fmt.Fprintf(&b, "  %-8s %s\n", name, s)
			}
		}
	}
	if r.MetricsDelta != nil {
		fmt.Fprintf(&b, "server metrics delta:\n")
		for _, k := range metricsDeltaKeys {
			if v, ok := r.MetricsDelta[k]; ok {
				fmt.Fprintf(&b, "  %-42s %+g\n", k, v)
			}
		}
	}
	fmt.Fprintf(&b, "final state: now=%d residents=%d energy=%.1f Wmin\n", r.FinalNow, r.FinalResidents, r.FinalEnergy)
	fmt.Fprintf(&b, "outcome digest: %s\n", r.OutcomeDigest)
	if r.StateDigest != "" {
		fmt.Fprintf(&b, "state digest:   %s\n", r.StateDigest)
	}
	return b.String()
}
