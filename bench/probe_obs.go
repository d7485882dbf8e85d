package main

import (
	"time"

	"vmalloc/internal/obs"
)

// probeObs times one record into each of the three telemetry rings at
// their default sizes, once the ring is full and every record evicts one.
func probeObs(scale int, out map[string]float64) {
	spans := obs.NewSpanStore(0)
	sp := obs.Span{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Name: obs.SpanScan, Op: obs.OpAdmit,
		Start: time.Now(), Duration: time.Microsecond}
	out["obs.span_record_ns"] = timeOp(20_000/scale, func() { spans.Record(sp) })

	rec := obs.NewFlightRecorder(0)
	d := obs.Decision{Op: obs.OpAdmit, VM: 1, Server: 1, RequestID: "probe", Wall: time.Now()}
	out["obs.decision_record_ns"] = timeOp(20_000/scale, func() { rec.Record(d) })

	energy := obs.NewEnergyRecorder(0)
	clock := 0
	out["obs.energy_record_ns"] = timeOp(20_000/scale, func() {
		clock++ // at most one sample per fleet minute is kept, so the clock moves
		energy.Record(obs.EnergySample{Clock: clock, TotalWattMinutes: float64(clock), Wall: time.Now()})
	})
}
