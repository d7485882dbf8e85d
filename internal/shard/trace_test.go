package shard

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
	"vmalloc/internal/promlint"
)

// tracedDeployment is a two-shard deployment with span stores and
// energy recorders wired at every layer, the way cmd/vmgate +
// cmd/vmserve -trace-spans -energy-window deploy it.
type tracedDeployment struct {
	gateSrv   *httptest.Server
	m         *Map
	gateSpans *obs.SpanStore
}

func newTracedDeployment(t *testing.T) *tracedDeployment {
	t.Helper()
	var shards []Shard
	for i, name := range []string{"s0", "s1"} {
		servers := make([]model.Server, 8)
		for j := range servers {
			servers[j] = model.Server{
				ID:             100*(i+1) + j,
				Capacity:       model.Resources{CPU: 10, Mem: 16},
				PIdle:          100,
				PPeak:          200,
				TransitionTime: 1,
			}
		}
		spans := obs.NewSpanStore(512)
		energy := obs.NewEnergyRecorder(128)
		c, err := cluster.Open(cluster.Config{
			Servers: servers, IdleTimeout: 2, Spans: spans, Energy: energy,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		srv := httptest.NewServer(clusterhttp.New(c, nil))
		t.Cleanup(srv.Close)
		shards = append(shards, Shard{Name: name, Addr: srv.URL})
	}
	m, err := NewMap(shards)
	if err != nil {
		t.Fatal(err)
	}
	gateSpans := obs.NewSpanStore(512)
	g := NewGate(m, Config{Spans: gateSpans})
	gateSrv := httptest.NewServer(g.Handler())
	t.Cleanup(gateSrv.Close)
	return &tracedDeployment{gateSrv: gateSrv, m: m, gateSpans: gateSpans}
}

// idsOnBoth returns VM ids such that the batch spans both shards.
func (d *tracedDeployment) idsOnBoth(n int) []int {
	var ids []int
	for _, name := range []string{"s0", "s1"} {
		count := 0
		for id := 1; count < n; id++ {
			if d.m.Assign(id).Name == name {
				ids = append(ids, id)
				count++
			}
		}
	}
	return ids
}

// TestGateTraceStitching is the tentpole acceptance check, run under
// -race by CI: one admission batch through the gate, fanned out to both
// shards, yields a single stitched trace — the client's trace id on the
// gate's route/fan-out/merge spans AND on both shards' edge and stage
// spans, linked parent→child across the process boundary.
func TestGateTraceStitching(t *testing.T) {
	d := newTracedDeployment(t)
	root := obs.NewTraceContext()

	ids := d.idsOnBoth(1)
	req, err := http.NewRequest(http.MethodPost, d.gateSrv.URL+"/v1/vms",
		strings.NewReader(admitBody(ids)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceParentHeader, root.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("admit status %d: %s", resp.StatusCode, body)
	}
	echo, ok := obs.ParseTraceParent(resp.Header.Get(obs.TraceParentHeader))
	if !ok || echo.TraceID != root.TraceID {
		t.Fatalf("gate echoed traceparent %+v, want trace %s", echo, root.TraceID)
	}

	var tr api.TracesResponse
	tresp, err := http.Get(d.gateSrv.URL + "/v1/debug/traces?trace=" + root.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if err := json.NewDecoder(tresp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Count != 1 {
		t.Fatalf("expected one stitched trace, got %+v", tr)
	}
	trace := tr.Traces[0]
	if trace.TraceID != root.TraceID {
		t.Fatalf("trace id %s", trace.TraceID)
	}

	// Index the tree: every span shares the trace id; spans are keyed by
	// id for parent walks.
	byID := map[string]obs.Span{}
	byName := map[string][]obs.Span{}
	for _, sp := range trace.Spans {
		if sp.TraceID != root.TraceID {
			t.Fatalf("span %+v leaked into trace %s", sp, root.TraceID)
		}
		byID[sp.SpanID] = sp
		byName[sp.Name] = append(byName[sp.Name], sp)
	}

	// Gate edge: one route span parented on the client's root span.
	var gateRoute obs.Span
	for _, sp := range byName[obs.SpanRoute] {
		if sp.Parent == root.SpanID {
			gateRoute = sp
		}
	}
	if gateRoute.SpanID == "" {
		t.Fatalf("no gate route span parented on the client root: %+v", byName[obs.SpanRoute])
	}

	// Fan-out: one span per shard under the gate route, naming the shard.
	fanned := map[string]obs.Span{}
	for _, sp := range byName[obs.SpanFanout] {
		if sp.Parent == gateRoute.SpanID {
			fanned[sp.Detail] = sp
		}
	}
	if len(fanned) != 2 || fanned["s0"].SpanID == "" || fanned["s1"].SpanID == "" {
		t.Fatalf("fan-out spans %+v", byName[obs.SpanFanout])
	}

	// Merge span under the gate route.
	merged := false
	for _, sp := range byName[obs.SpanMerge] {
		if sp.Parent == gateRoute.SpanID {
			merged = true
		}
	}
	if !merged {
		t.Fatalf("no merge span under the gate route: %+v", byName[obs.SpanMerge])
	}

	// Cross-process stitch: each shard's edge span is parented on that
	// shard's fan-out span, and each shard scanned and committed under its
	// edge.
	for _, shard := range []string{"s0", "s1"} {
		fan := fanned[shard]
		var shardRoute obs.Span
		for _, sp := range byName[obs.SpanRoute] {
			if sp.Parent == fan.SpanID {
				shardRoute = sp
			}
		}
		if shardRoute.SpanID == "" {
			t.Fatalf("shard %s: no edge span parented on fan-out %s", shard, fan.SpanID)
		}
		committed := 0
		for _, sp := range byName[obs.SpanCommit] {
			if sp.Parent == shardRoute.SpanID {
				committed++
				if sp.Op != obs.OpAdmit || sp.VM == 0 {
					t.Fatalf("shard %s commit span %+v", shard, sp)
				}
			}
		}
		if committed != 1 {
			t.Fatalf("shard %s: %d commit spans under its edge, want 1", shard, committed)
		}
		scanned := 0
		for _, sp := range byName[obs.SpanScan] {
			if sp.Parent == shardRoute.SpanID {
				scanned++
			}
		}
		if scanned != 1 {
			t.Fatalf("shard %s: %d scan spans under its edge, want 1", shard, scanned)
		}
	}

	// Every span in the tree resolves to the root through Parent links.
	for _, sp := range trace.Spans {
		hops := 0
		cur := sp
		for cur.Parent != root.SpanID {
			parent, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %s (%s) has dangling parent %q", cur.SpanID, cur.Name, cur.Parent)
			}
			cur = parent
			if hops++; hops > 10 {
				t.Fatalf("parent chain from %s did not terminate", sp.SpanID)
			}
		}
	}
}

// TestGateEnergyAggregation: the gate's /v1/debug/energy folds both
// shard series — min clock, summed totals, per-shard sections — and
// validates its query parameters.
func TestGateEnergyAggregation(t *testing.T) {
	d := newTracedDeployment(t)

	resp, err := http.Post(d.gateSrv.URL+"/v1/vms", "application/json",
		strings.NewReader(admitBody(d.idsOnBoth(1))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(d.gateSrv.URL+"/v1/clock", "application/json", strings.NewReader(`{"now":30}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clock status %d", resp.StatusCode)
	}

	eresp, err := http.Get(d.gateSrv.URL + "/v1/debug/energy")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("energy status %d", eresp.StatusCode)
	}
	var ge api.GateEnergyResponse
	if err := json.NewDecoder(eresp.Body).Decode(&ge); err != nil {
		t.Fatal(err)
	}
	if len(ge.Shards) != 2 || ge.Shards[0].Shard != "s0" || ge.Shards[1].Shard != "s1" {
		t.Fatalf("gate energy shards %+v", ge.Shards)
	}
	var sum float64
	for _, se := range ge.Shards {
		if se.Energy.Count == 0 || se.Energy.Count != len(se.Energy.Samples) || se.Energy.Now != 30 {
			t.Fatalf("shard %s energy %+v", se.Shard, se.Energy)
		}
		if rate := se.Energy.Samples[se.Energy.Count-1].RateWatts; !(rate > 0) {
			t.Fatalf("shard %s newest sample draws %g W, want > 0", se.Shard, rate)
		}
		sum += se.Energy.TotalWattMinutes
	}
	if ge.Now != 30 || ge.TotalWattMinutes != sum || sum <= 0 {
		t.Fatalf("gate energy now=%d total=%g (shard sum %g)", ge.Now, ge.TotalWattMinutes, sum)
	}
}

// TestGateMetricsWithTelemetry: the merged exposition (shard-labelled
// vmalloc_trace_*/vmalloc_energy_* families plus the gate's own
// vmalloc_gate_trace_*) stays promlint-clean.
func TestGateMetricsWithTelemetry(t *testing.T) {
	d := newTracedDeployment(t)
	req, _ := http.NewRequest(http.MethodPost, d.gateSrv.URL+"/v1/vms",
		strings.NewReader(admitBody(d.idsOnBoth(1))))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceParentHeader, obs.NewTraceContext().Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(d.gateSrv.URL+"/v1/clock", "application/json", strings.NewReader(`{"now":5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mresp, err := http.Get(d.gateSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	data, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	promlint.Lint(t, out)
	for _, want := range []string{
		`vmalloc_trace_spans_total{shard="s0"}`,
		`vmalloc_trace_spans_total{shard="s1"}`,
		`vmalloc_energy_samples_total{shard="s0"}`,
		`vmalloc_energy_clock_minutes{shard="s1"} 5`,
		"vmalloc_gate_trace_spans_total ",
		"vmalloc_gate_trace_spans_buffered ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged exposition missing %q", want)
		}
	}
	if strings.Contains(out, "\nvmalloc_trace_spans_total ") {
		t.Error("unlabelled shard trace family leaked into the merged exposition")
	}
}
