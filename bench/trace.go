package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"vmalloc"
	"vmalloc/internal/obs"
)

// The traced run reads what the daemons already export — the span store
// behind GET /v1/debug/traces and the counters on GET /metrics — and adds
// no timer inside them. The client wraps every call in a span of its own
// and sends it as traceparent, so a daemon's route span is that span's
// child and the stage spans are the route span's children.

// procSpan is a daemon span tagged with the process it was pulled from.
type procSpan struct {
	obs.Span
	process string
}

// layerCapture is everything pulled from the daemons after a traced round.
type layerCapture struct {
	spans []procSpan
	delta promMetrics // /metrics after minus before the measured phase
}

// captureLayers pulls the span stores and the /metrics delta. Shards are
// read directly; whatever the gate's stitched view adds on top is the
// gate's own.
func captureLayers(ctx context.Context, c *client, dep *deployment, before promMetrics) (*layerCapture, error) {
	lc := &layerCapture{delta: promMetrics{}}
	after, err := c.metrics(ctx)
	if err != nil {
		return nil, err
	}
	for k, v := range after {
		lc.delta[k] = v - before[k]
	}
	seen := map[string]bool{}
	pull := func(d *daemon) error {
		pc := newClient(d.url, 1, nil)
		defer pc.close()
		tr, err := pc.traces(ctx)
		if err != nil {
			return err
		}
		for _, t := range tr.Traces {
			for _, sp := range t.Spans {
				if !seen[sp.SpanID] {
					seen[sp.SpanID] = true
					lc.spans = append(lc.spans, procSpan{sp, d.name})
				}
			}
		}
		return nil
	}
	for _, s := range dep.shards {
		if err := pull(s); err != nil {
			return nil, err
		}
	}
	if dep.front != dep.shards[0] {
		if err := pull(dep.front); err != nil {
			return nil, err
		}
	}
	return lc, nil
}

// interval is a half-open stretch of wall time.
type interval struct{ from, to time.Time }

// covered returns how much of [from, to) the intervals cover together.
func covered(from, to time.Time, parts []interval) time.Duration {
	sort.Slice(parts, func(a, b int) bool { return parts[a].from.Before(parts[b].from) })
	var total time.Duration
	cursor := from
	for _, p := range parts {
		if p.from.Before(cursor) {
			p.from = cursor
		}
		if p.to.After(to) {
			p.to = to
		}
		if p.to.After(p.from) {
			total += p.to.Sub(p.from)
			cursor = p.to
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(sp obs.Span, children []obs.Span) time.Duration {
	parts := make([]interval, len(children))
	for i, ch := range children {
		parts[i] = interval{ch.Start, ch.Start.Add(ch.Duration)}
	}
	return sp.Duration - covered(sp.Start, sp.Start.Add(sp.Duration), parts)
}

// callStage identifies one per-call stage span, which the daemons record
// once for every VM the call carried.
type callStage struct {
	process, name string
	startNanos    int64
}

const (
	routeAdmit = "POST /v1/vms"
	routeState = "GET /v1/state"
)

// stageMetrics turns one traced round's capture into the span-derived
// per-layer metrics. since cuts the warm-up off; clientAdmit maps an admit
// call's trace id to its client span, vms is the number accepted in the
// measured phase.
func stageMetrics(lc *layerCapture, since time.Time, clientAdmit map[string]clientSpan, vms int, gate bool, out map[string]float64) {
	children := map[string][]obs.Span{} // parent span id → children
	byTrace := map[string][]procSpan{}
	for _, sp := range lc.spans {
		if sp.Start.Before(since) {
			continue
		}
		children[sp.Parent] = append(children[sp.Parent], sp.Span)
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}

	var decode, queue, fsync, routeSelf, coverage []float64
	var gateSelf, fanout, merge, stateMerge, width, overhead []float64
	var scanSum, commitSum, journalSum, durable, clientSum time.Duration
	var journalN, proxyErrs int
	for traceID, spans := range byTrace {
		cs, isAdmit := clientAdmit[traceID]
		onePerCall := map[callStage]bool{} // decode/queue/fsync repeat on every VM of a call
		// A gate's call waits for its slowest shard, so what queueing and
		// durability cost the call is the largest shard's sum, not the total.
		durableBy := map[string]time.Duration{}
		var slowestShard time.Duration
		var fanouts int
		for _, sp := range spans {
			switch sp.Name {
			case obs.SpanDecode, obs.SpanQueue, obs.SpanSync:
				key := callStage{sp.process, sp.Name, sp.Start.UnixNano()}
				if onePerCall[key] || !isAdmit {
					continue
				}
				onePerCall[key] = true
				switch sp.Name {
				case obs.SpanDecode:
					decode = append(decode, us(sp.Duration))
				case obs.SpanQueue:
					queue = append(queue, us(sp.Duration))
					durableBy[sp.process] += sp.Duration
				case obs.SpanSync:
					fsync = append(fsync, ms(sp.Duration))
					durableBy[sp.process] += sp.Duration
				}
			case obs.SpanScan:
				scanSum += sp.Duration
			case obs.SpanCommit:
				if isAdmit {
					commitSum += sp.Duration
				}
			case obs.SpanJournal:
				journalSum += sp.Duration
				journalN++
				if isAdmit {
					durableBy[sp.process] += sp.Duration
				}
			case obs.SpanFanout:
				if sp.Err != "" {
					proxyErrs++
				}
				if isAdmit {
					fanout = append(fanout, us(sp.Duration))
					fanouts++
				}
			case obs.SpanMerge:
				if isAdmit {
					merge = append(merge, us(sp.Duration))
				}
			case obs.SpanRoute:
				kids := children[sp.SpanID]
				switch {
				case sp.process == "gate" && sp.Detail == routeAdmit:
					gateSelf = append(gateSelf, us(selfTime(sp.Span, kids)))
				case sp.process == "gate" && sp.Detail == routeState:
					for _, k := range kids {
						if k.Name == obs.SpanMerge {
							stateMerge = append(stateMerge, ms(k.Duration))
						}
					}
				case sp.process != "gate" && sp.Detail == routeAdmit:
					routeSelf = append(routeSelf, us(selfTime(sp.Span, kids)))
					slowestShard = max(slowestShard, sp.Duration)
					if isAdmit && !gate {
						coverage = append(coverage, 100*float64(sp.Duration)/float64(cs.DurationNanos))
					}
				}
			}
		}
		if isAdmit {
			clientSum += cs.DurationNanos
			var slowest time.Duration
			for _, d := range durableBy {
				slowest = max(slowest, d)
			}
			durable += slowest
			if gate {
				width = append(width, float64(fanouts))
				overhead = append(overhead, us(cs.DurationNanos-slowestShard))
			}
		}
	}
	out["clusterhttp.decode_us_p50"] = median(decode)
	out["clusterhttp.route_self_us_p50"] = median(routeSelf)
	out["clusterhttp.stage_coverage_pct"] = median(coverage)
	out["cluster.queue_wait_us_p50"] = median(queue)
	out["cluster.queue_wait_us_p99"] = percentile(queue, 0.99)
	out["cluster.fsync_ms_p50"] = median(fsync)
	out["cluster.fsync_ms_p99"] = percentile(fsync, 0.99)
	if vms > 0 {
		out["cluster.scan_us_per_vm"] = us(scanSum) / float64(vms)
		out["cluster.commit_us_per_vm"] = us(commitSum) / float64(vms)
	}
	if journalN > 0 {
		out["cluster.journal_append_us_per_record"] = us(journalSum) / float64(journalN)
	}
	if clientSum > 0 {
		out["cluster.durability_self_share_pct"] = 100 * float64(durable) / float64(clientSum)
	}
	out["shard.route_self_us_p50"] = median(gateSelf)
	out["shard.fanout_us_p50"] = median(fanout)
	out["shard.merge_us_p50"] = median(merge)
	out["shard.fanout_width_mean"] = mean(width)
	out["shard.gate_overhead_us_p50"] = median(overhead)
	out["shard.state_merge_ms_p50"] = median(stateMerge)
	out["shard.proxy_errors"] = float64(proxyErrs)
}

// counterMetrics reads the per-layer metrics that come from the daemons'
// /metrics delta over the measured phase.
func counterMetrics(delta promMetrics, out map[string]float64) {
	admissions := delta.sum("vmalloc_cluster_admissions_total")
	if n := delta.sum("vmalloc_cluster_batch_size_count"); n > 0 {
		out["cluster.batch_vms_mean"] = delta.sum("vmalloc_cluster_batch_size_sum") / n
	}
	if admissions > 0 {
		out["cluster.fsyncs_per_admit"] = delta.sum("vmalloc_cluster_fsync_groups_total") / admissions
		out["online.scan_candidates_per_vm"] = delta.sum("vmalloc_cluster_scan_candidates_total") / admissions
	}
	out["cluster.snapshots"] = delta.sum("vmalloc_cluster_snapshots_total")
	if cand := delta.sum("vmalloc_cluster_scan_candidates_total"); cand > 0 {
		out["online.candidates_pruned_share"] = delta.sum("vmalloc_cluster_scan_index_pruned_total") / cand
	}
}

// clientMetrics reads the per-layer metrics the generator measures itself,
// from the untraced rounds (more samples, no tracing in the way).
func clientMetrics(rounds []*round, out map[string]float64) {
	var admit, release, clock, read durations
	var req, resp int64
	var accepted int
	var gen, wall, disk, cpu float64
	for _, rd := range rounds {
		cpu += us(rd.cpu)
		admit = append(admit, rd.admit...)
		release = append(release, rd.release...)
		clock = append(clock, rd.clock...)
		read = append(read, rd.read...)
		req += rd.reqBytes
		resp += rd.respBytes
		accepted += rd.accepted
		gen += rd.genCPU.Seconds()
		wall += rd.wall.Seconds()
		disk += float64(rd.writeBytes)
	}
	out["clusterhttp.clock_ms_p50"] = median(clock.msValues())
	out["clusterhttp.admit_ms_p99"] = percentile(admit.msValues(), 0.99)
	out["clusterhttp.release_ms_p99"] = percentile(release.msValues(), 0.99)
	out["clusterhttp.state_read_ms_p50"] = median(read.msValues())
	if accepted > 0 {
		out["clusterhttp.req_bytes_per_vm"] = float64(req) / float64(accepted)
		out["clusterhttp.resp_bytes_per_vm"] = float64(resp) / float64(accepted)
		out["cluster.disk_write_bytes_per_vm"] = disk / float64(accepted)
		out["bench.server_cpu_us_per_vm"] = cpu / float64(accepted)
	}
	if wall > 0 {
		out["bench.generator_cpu_share"] = gen / wall
	}
}

// tracedService is the traced part of a service run: one traced round for
// the stage spans and counters, then the pairs and probes that live on
// this workload.
func tracedService(env *runEnv, spec *serviceSpec, sch *schedule, servers []vmalloc.Server, res *result, untraced []*round) error {
	ring := fmt.Sprint(12 * sch.vms) // a ring large enough to keep the whole round
	v := variant{serveExtra: []string{"-trace-spans", ring}}
	if spec.shards > 0 {
		v.gateExtra = []string{"-trace-spans", ring}
	}
	tr, err := playRound(env, spec, sch, servers, v, true)
	if err != nil {
		return err
	}
	res.absorb(tr.led)

	// Only the measured phase counts: the warm-up's spans are cut off.
	since := tr.measuredFrom
	clientAdmit := map[string]clientSpan{}
	for _, cs := range env.spans.spans { // the traced round is the only one that logs spans
		if cs.Name == "client.admit" && !cs.Start.Before(since) {
			clientAdmit[cs.TraceID] = cs
		}
	}
	stageMetrics(tr.layer, since, clientAdmit, tr.accepted, spec.shards > 0, res.layer)
	counterMetrics(tr.layer.delta, res.layer)
	clientMetrics(untraced, res.layer)
	res.layer["obs.bench_tracing_overhead_pct"] = 100 * (1 - throughput(tr)/throughput(untraced...))
	for _, sp := range tr.layer.spans {
		res.serverSpans = append(res.serverSpans, clientSpan{
			TraceID: sp.TraceID, SpanID: sp.SpanID, Parent: sp.Parent, Name: sp.Name,
			Process: sp.process, Detail: sp.Detail, Start: sp.Start, DurationNanos: sp.Duration,
		})
	}
	res.notef("traced round: %d daemon spans, %d client admit spans", len(tr.layer.spans), len(clientAdmit))

	switch spec.name {
	case wlServeBatch:
		off, err := playRound(env, spec, sch, servers, variant{serveExtra: []string{"-trace-spans", "0", "-energy-window", "0"}}, false)
		if err != nil {
			return err
		}
		res.layer["obs.telemetry_overhead_pct"] = 100 * (1 - throughput(untraced...)/throughput(off))
		one, err := playRound(env, spec, sch, servers, variant{env: []string{"GOMAXPROCS=1"}}, false)
		if err != nil {
			return err
		}
		res.layer["cluster.gomaxprocs_scaling"] = throughput(untraced...) / throughput(one)
		res.absorb(off.led)
		res.absorb(one.led)
		probeTimeline(env.scale, res.layer)
		probeOnline(env.scale, res.layer)
		probeObs(env.scale, res.layer)
	case wlServeDurable:
		if err := probeCluster(env, res.layer); err != nil {
			return err
		}
	case wlGateMixed:
		probeShard(env.scale, res.layer)
		if err := probeRebalance(env, res); err != nil {
			return err
		}
	}
	return nil
}

// writeSpans writes a traced run's spans — the client's and the daemons' —
// as JSON lines under bench/out.
func writeSpans(dir, workload string, client *spanLog, server []clientSpan) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, group := range [][]clientSpan{client.spans, server} {
		for i := range group {
			if group[i].Process == "" {
				group[i].Process = "bench"
			}
			if err := enc.Encode(&group[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
