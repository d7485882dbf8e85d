// Debug-surface wire types: GET /v1/debug/traces and
// GET /v1/debug/energy on both vmserve shards and the vmgate (the gate
// stitches shard traces into one tree and aggregates shard energy).
// These follow the same contract rules as the rest of the package:
// field names are frozen, evolution is additive.

package api

import (
	"sort"

	"vmalloc/internal/obs"
)

// Trace is one distributed trace: every recorded span sharing a trace
// id, ordered by start time. The spans form a tree via Span.Parent —
// on the gate, the tree crosses processes (gate route → per-shard
// fan-out → shard route → shard stages) because the gate propagates its
// fan-out span id as the shard edge's parent.
type Trace struct {
	TraceID string     `json:"traceId"`
	Spans   []obs.Span `json:"spans"`
}

// TracesResponse is the body of GET /v1/debug/traces.
type TracesResponse struct {
	// Count is the number of traces; Spans the total spans across them.
	Count  int     `json:"count"`
	Spans  int     `json:"spans"`
	Traces []Trace `json:"traces"`
}

// NewTracesResponse groups flat spans into the GET /v1/debug/traces
// body; no spans is an empty list, not null.
func NewTracesResponse(spans []obs.Span) TracesResponse {
	traces := GroupSpans(spans)
	if traces == nil {
		traces = []Trace{}
	}
	return TracesResponse{Count: len(traces), Spans: len(spans), Traces: traces}
}

// GroupSpans assembles flat spans (possibly from several stores — the
// gate merges its own with shard-fetched ones) into traces. Traces are
// ordered by their earliest span start (trace id breaking ties); spans
// within a trace by (start, trace-store seq, span id), which puts
// parents before children for the sequential pipeline stages.
func GroupSpans(spans []obs.Span) []Trace {
	byID := map[string]int{}
	var out []Trace
	for _, sp := range spans {
		i, ok := byID[sp.TraceID]
		if !ok {
			i = len(out)
			byID[sp.TraceID] = i
			out = append(out, Trace{TraceID: sp.TraceID})
		}
		out[i].Spans = append(out[i].Spans, sp)
	}
	for i := range out {
		sort.SliceStable(out[i].Spans, func(a, b int) bool {
			sa, sb := &out[i].Spans[a], &out[i].Spans[b]
			if !sa.Start.Equal(sb.Start) {
				return sa.Start.Before(sb.Start)
			}
			if sa.Seq != sb.Seq {
				return sa.Seq < sb.Seq
			}
			return sa.SpanID < sb.SpanID
		})
	}
	sort.SliceStable(out, func(a, b int) bool {
		sa, sb := out[a].Spans[0].Start, out[b].Spans[0].Start
		if !sa.Equal(sb) {
			return sa.Before(sb)
		}
		return out[a].TraceID < out[b].TraceID
	})
	return out
}

// EnergyResponse is the body of a shard's GET /v1/debug/energy: the
// windowed energy-over-time series. Samples are strictly monotone in
// fleet clock, and the newest sample's cumulative total equals the
// cluster's reported total energy at that clock, so integrating
// rateWatts over the clock deltas reproduces the total.
type EnergyResponse struct {
	Count int `json:"count"`
	// Now and TotalWattMinutes mirror the newest sample (0 when the
	// recorder is empty or disabled).
	Now              int                `json:"now"`
	TotalWattMinutes float64            `json:"totalWattMinutes"`
	Samples          []obs.EnergySample `json:"samples"`
}

// ShardEnergy is one shard's energy series inside the gate response.
type ShardEnergy struct {
	Shard  string         `json:"shard"`
	Energy EnergyResponse `json:"energy"`
}

// GateEnergyResponse is the body of the gate's GET /v1/debug/energy:
// per-shard series plus the fleet-wide cumulative total (the sum of
// shard totals, the same aggregation /v1/state applies to energy).
type GateEnergyResponse struct {
	// Now is the minimum shard clock (the fleet-wide time up to which
	// every shard's series is complete).
	Now              int           `json:"now"`
	TotalWattMinutes float64       `json:"totalWattMinutes"`
	Shards           []ShardEnergy `json:"shards"`
}
